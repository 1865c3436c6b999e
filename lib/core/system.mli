(** One-call assembly of a complete Paramecium system.

    Bundles the pieces a user otherwise wires by hand: a certification
    authority with the paper's standard delegate chain (trusted compiler →
    prover → test team → administrator), a booted kernel trusting that
    authority, and helpers that publish, certify and place components.

    This is the entry point examples and benchmarks use. *)

type t

(** Where a component is placed — the axis of experiment E4. *)
type placement =
  | Certified  (** kernel domain, certificate validated at load time *)
  | Online_certified
      (** kernel domain, but no certificate exists yet: the kernel blocks
          while the delegate chain certifies at load time ("this does not
          exclude on-line certification by the kernel", §4) — the
          delegates' latency is charged to the machine clock *)
  | Verified
      (** kernel domain, no certificate: the {!Pm_check.Verify} bytecode
          verifier must statically prove the object code safe — the
          third trust mechanism, zero per-access overhead like
          [Certified] but with no signer in the loop *)
  | Sandboxed  (** kernel domain, uncertified, SFI run-time checks *)
  | User of Pm_nucleus.Domain.t  (** the given user domain, via proxies *)

(** [create ?seed ?costs ?cpus ?key_bits ()] builds the system.
    [seed] drives every pseudo-random choice (default 0xC0FFEE); [cpus]
    is the machine's CPU count, each CPU with its own scheduler
    (default 1); [key_bits] sizes RSA keys (default 512 — small but
    real). *)
val create :
  ?seed:int ->
  ?costs:Pm_machine.Cost.t ->
  ?cpus:int ->
  ?key_bits:int ->
  unit ->
  t

(** [with_authority ~seed authority] boots a fresh kernel that trusts an
    *existing* authority (and knows its grants) — how additional nodes of
    a cluster join a certification domain. *)
val with_authority : seed:int -> Pm_secure.Authority.t -> t

val kernel : t -> Pm_nucleus.Kernel.t
val authority : t -> Pm_secure.Authority.t
val rng : t -> Pm_crypto.Prng.t
val api : t -> Pm_nucleus.Api.t
val clock : t -> Pm_machine.Clock.t

(** The /stats service wired at boot ([/stats/kernel] plus per-domain
    objects published by {!new_domain}). *)
val stats : t -> Pm_obs_agent.Stats_svc.t

(** The composition-linter service wired at boot ([/nucleus/check]). *)
val check : t -> Pm_check_lint.Check_svc.t

(** The machine's CPUs and the per-CPU schedulers over them. *)
val cpu : t -> Pm_machine.Cpu.t

val smp : t -> Pm_threads.Smp.t

(** Number of CPUs. *)
val cpus : t -> int

(** [install t image ~placement ~at] publishes the image, certifies it
    when [placement] is [Certified] (failing if no delegate accepts),
    sandbox-wraps it when [Sandboxed], and loads it at path [at]. *)
val install :
  t ->
  Pm_nucleus.Loader.image ->
  placement:placement ->
  at:string ->
  (Pm_obj.Instance.t, string) result

val install_exn :
  t -> Pm_nucleus.Loader.image -> placement:placement -> at:string -> Pm_obj.Instance.t

(** [verified_fuel t name] is the affine fuel bound the bytecode
    verifier proved at [name]'s most recent [Verified] install —
    instantiate it with [Pm_check.Verify.fuel_for] at the component's
    window size to meter its runs against its own proof. [None] when
    the component was never admitted by verification. *)
val verified_fuel : t -> string -> Pm_check.Verify.fuel_bound option

(** {1 Transactional composition}

    [transact t name f] groups composition steps — install, register,
    interpose — into one atomic unit. [f] receives a transaction token
    and performs steps through {!txn_install}, {!txn_register} and
    {!txn_interpose}; if it returns [Error] (or raises), every completed
    step is rolled back newest-first and pages allocated during the
    transaction are freed, so a half-wired component is never observable
    in the namespace, the page tables or the interposition log. The
    journal brackets the unit with [Txn_begin] and [Txn_commit] /
    [Txn_abort]. *)

type txn

val transact : t -> string -> (txn -> ('a, string) result) -> ('a, string) result

(** {!install} with an unload undo registered on success. *)
val txn_install :
  txn ->
  Pm_nucleus.Loader.image ->
  placement:placement ->
  at:string ->
  (Pm_obj.Instance.t, string) result

(** [Directory.register] with an unregister undo. *)
val txn_register : txn -> string -> Pm_obj.Instance.t -> (unit, string) result

(** [Directory.replace] with an {!Pm_nucleus.Directory.unreplace} undo;
    returns the displaced instance. *)
val txn_interpose :
  txn -> string -> Pm_obj.Instance.t -> (Pm_obj.Instance.t, string) result

(** Networking bundle for the experiments and examples. *)
type networking = {
  driver : Pm_obj.Instance.t;  (** at [/services/netdrv] and [/shared/network] *)
  stack : Pm_obj.Instance.t;  (** at [/services/stack] *)
  stack_domain : Pm_nucleus.Domain.t;
}

(** [setup_networking t ~placement ~addr ?loopback ()] loads a certified
    NIC driver into the kernel, places the protocol stack per [placement],
    and attaches the driver's receive path to the stack. *)
val setup_networking :
  t -> placement:placement -> addr:int -> ?loopback:bool -> unit -> networking

(** [channel_rx t net ()] rewires the driver→stack receive path over a
    shared-memory channel ({!Pm_chan.Chan_svc.bridge}): the driver
    enqueues frames into a ring in its own domain (at
    [/services/chan-rx]) and a doorbell pop-up in the stack's domain
    drains each burst into one [rx_batch] invocation — replacing the
    per-frame proxy hop of a [User]-placed stack. Returns the ring for
    inspection. *)
val channel_rx : t -> networking -> unit -> Pm_chan.Chan.t

(** [channel_net t net ()] builds the full channel-backed data path
    ({!Pm_net.Netstack_chan}) over an existing networking bundle and
    publishes the network factory at [/shared/net]; binding a port
    through it registers endpoints at [/net/<port>/rx] and
    [/net/<port>/tx]. Usually combined with {!channel_rx} so every hop
    driver→stack→app (and back) rides a ring. *)
val channel_net :
  t -> networking -> ?rx_slots:int -> unit -> Pm_net.Netstack_chan.t * Pm_obj.Instance.t

(** [new_domain t name] is a fresh user protection domain. *)
val new_domain : t -> string -> Pm_nucleus.Domain.t

(** The canonical storage stack: certified block driver at
    [/services/blkdrv] (also [/store/blkdrv]), then partition → cache →
    log placed per [placement] at [/store/part0..log0], plus the
    [/shared/store] factory for growing more components. *)
type storage = {
  blk_driver : Pm_obj.Instance.t;
  partition : Pm_obj.Instance.t;
  block_cache : Pm_obj.Instance.t;
  log : Pm_obj.Instance.t;
  store_domain : Pm_nucleus.Domain.t;
}

(** [setup_store t ~placement ?count ?cache_capacity ()] boots the
    partition→cache→log stack over the first [count] blocks of the
    machine's block device and publishes the storage factory at
    [/shared/store]. *)
val setup_store :
  t ->
  placement:placement ->
  ?count:int ->
  ?cache_capacity:int ->
  unit ->
  storage

(** [setup_kv t ~placement ~cache_capacity] boots the whole-system KV
    workload: certified loopback networking at address 42 with the
    channel-backed data path ({!channel_net}), the storage stack placed
    per [placement] with a [cache_capacity]-line cache ({!setup_store}),
    a KV store ["kv0"] over [/store/log0] served on port 70 from the
    kernel's domain ({!Pm_store.Kv.serve}), and a client on port 71 in a
    fresh ["kvclient"] domain ({!Pm_store.Kv.client}). Returns the store
    and the client. *)
val setup_kv :
  t ->
  placement:placement ->
  cache_capacity:int ->
  Pm_obj.Instance.t * Pm_store.Kv.client
