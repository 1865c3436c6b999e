(** A small inode filesystem over a block device whose block size is the
    page size (the kernel's paging disk), driven through the device's
    synchronous transfer.

    Another entry in the component toolbox: a filesystem is exactly the
    kind of operating-system component the paper wants outside the
    nucleus, loadable into whichever protection domain a configuration
    chooses. All metadata lives on the disk (superblock + inode table +
    allocation bitmap), so a filesystem survives unmount and remount.

    Layout (block size = machine page size):
    - block 0: superblock (magic, geometry) + data-block bitmap
    - blocks 1..i: inode table (64-byte inodes, 12 direct block pointers
      each — max file size 12 blocks)
    - remaining blocks: file/directory data

    Directories are files of fixed 32-byte entries; paths are the usual
    ["/a/b/c"] strings resolved from the root directory (inode 0).

    Exported interface ["fs"]:
    - [mkdir(path:str) -> unit], [create(path:str) -> unit]
    - [write(path:str, offset:int, data:blob) -> int] — bytes written
    - [read(path:str, offset:int, len:int) -> blob]
    - [remove(path:str) -> unit] — files and empty directories
    - [list(path:str) -> list] of entry names
    - [stat(path:str) -> (kind, size)] — kind 0 = file, 1 = directory
    - [sync() -> unit] — flush cached metadata to disk

    Byte traffic charges {!Pm_obj.Call_ctx.access} like every other
    component, so a sandboxed filesystem pays the SFI tax. *)

type t

type error =
  | Not_found of string
  | Exists of string
  | Not_a_directory of string
  | Is_a_directory of string
  | No_space
  | File_too_large
  | Directory_not_empty of string
  | Bad_path of string

val error_to_string : error -> string

(** [format api ~disk] writes a fresh filesystem and mounts it. Raises
    [Invalid_argument] if the disk's block size is not the page size. *)
val format : Pm_nucleus.Api.t -> disk:Pm_machine.Blkdev.t -> t

(** [mount api ~disk] reads an existing filesystem's metadata. Raises
    [Invalid_argument] if the disk's block size is not the page size or
    the superblock magic is wrong. *)
val mount : Pm_nucleus.Api.t -> disk:Pm_machine.Blkdev.t -> t

(** [sync t] writes all cached metadata back to disk. *)
val sync : t -> unit

(** {1 Direct API} (the object interface wraps these) *)

val mkdir : t -> Pm_obj.Call_ctx.t -> string -> (unit, error) result
val create : t -> Pm_obj.Call_ctx.t -> string -> (unit, error) result

val write :
  t -> Pm_obj.Call_ctx.t -> string -> offset:int -> bytes -> (int, error) result

val read :
  t -> Pm_obj.Call_ctx.t -> string -> offset:int -> len:int -> (bytes, error) result

val remove : t -> Pm_obj.Call_ctx.t -> string -> (unit, error) result
val list : t -> Pm_obj.Call_ctx.t -> string -> (string list, error) result

(** [stat t ctx path] is [(is_dir, size)]. *)
val stat : t -> Pm_obj.Call_ctx.t -> string -> (bool * int, error) result

(** [instance api dom t] builds the object wrapper in [dom]. *)
val instance : Pm_nucleus.Api.t -> Pm_nucleus.Domain.t -> t -> Pm_obj.Instance.t

(** [free_blocks t] — observability for tests. *)
val free_blocks : t -> int
