(** Paramecium: an extensible object-based kernel — public facade.

    Re-exports every subsystem under one roof and provides {!System}, the
    one-call assembly used by the examples and benchmarks.

    Layering (bottom-up): {!Nat}/{!Prng}/{!Sha256}/{!Rsa} (arithmetic and
    cryptography), {!Cost}/{!Clock}/{!Physmem}/{!Mmu}/{!Machine} and the
    device models (simulated hardware), {!Value}/{!Iface}/{!Instance}/
    {!Composite} (the object architecture), {!Path}/{!Namespace}/{!View}
    (instance naming), {!Principal}/{!Certificate}/{!Delegation}/
    {!Authority}/{!Validator} (certification), {!Scheduler}/{!Sync}
    (threads), {!Domain}/{!Events}/{!Vmem}/{!Directory}/{!Certsvc}/
    {!Loader}/{!Kernel} (the nucleus), the component toolbox, and the
    SFI/policy baselines. *)

(* bignum + crypto *)
module Nat = Pm_bignum.Nat
(* all of Prng but the state read and restore, which serve Rsa's key memo *)
module Prng :
  module type of struct
    include Pm_crypto.Prng
  end
  with module State := Pm_crypto.Prng.State =
  Pm_crypto.Prng
module Sha256 = Pm_crypto.Sha256
module Prime = Pm_crypto.Prime
module Rsa = Pm_crypto.Rsa

(* system history *)
module Journal = Pm_journal.Journal
module Trace = Pm_journal.Trace
module Query = Pm_query.Query

(* observability core *)
module Metrics = Pm_obs.Metrics
module Obs = Pm_obs.Obs

(* simulated machine *)
module Cost = Pm_machine.Cost
module Clock = Pm_machine.Clock
module Physmem = Pm_machine.Physmem
module Mmu = Pm_machine.Mmu
module Machine = Pm_machine.Machine
module Cpu = Pm_machine.Cpu
module Device = Pm_machine.Device
module Nic = Pm_machine.Nic
module Timer_dev = Pm_machine.Timer_dev
module Console = Pm_machine.Console
module Blkdev = Pm_machine.Blkdev

(* object architecture *)
module Value = Pm_obj.Value
module Vtype = Pm_obj.Vtype
module Oerror = Pm_obj.Oerror
module Call_ctx = Pm_obj.Call_ctx
module Iface = Pm_obj.Iface
module Registry = Pm_obj.Registry
module Instance = Pm_obj.Instance
module Invoke = Pm_obj.Invoke
module Inline = Pm_obj.Inline
module Composite = Pm_obj.Composite

(* instance naming *)
module Path = Pm_names.Path
module Namespace = Pm_names.Namespace
module View = Pm_names.View

(* security architecture *)
module Principal = Pm_secure.Principal
module Meta = Pm_secure.Meta
module Certificate = Pm_secure.Certificate
module Delegation = Pm_secure.Delegation
module Authority = Pm_secure.Authority
module Validator = Pm_secure.Validator

(* threads *)
module Scheduler = Pm_threads.Scheduler
module Sync = Pm_threads.Sync
module Smp = Pm_threads.Smp

(* nucleus *)
module Domain = Pm_nucleus.Domain
module Events = Pm_nucleus.Events
module Vmem = Pm_nucleus.Vmem
module Proxy = Pm_nucleus.Proxy
module Directory = Pm_nucleus.Directory
module Certsvc = Pm_nucleus.Certsvc
module Tracesvc = Pm_nucleus.Tracesvc
module Journalsvc = Pm_nucleus.Journalsvc
module Querysvc = Pm_nucleus.Querysvc
module Api = Pm_nucleus.Api
module Loader = Pm_nucleus.Loader
module Kernel = Pm_nucleus.Kernel

(* component toolbox *)
module Codegen = Pm_components.Codegen
module Wire = Pm_components.Wire
module Allocator = Pm_components.Allocator
module Netdrv = Pm_components.Netdrv
module Stack = Pm_components.Stack
module Rpc = Pm_components.Rpc
module Interpose = Pm_components.Interpose
module Obs_agent = Pm_obs_agent.Obs_agent
module Stats_svc = Pm_obs_agent.Stats_svc
module Placer = Pm_obs_agent.Placer
module Pager = Pm_components.Pager
module Simplefs = Pm_components.Simplefs
module Images = Pm_components.Images

(* shared-memory channels *)
module Chan = Pm_chan.Chan
module Mpsc = Pm_chan.Mpsc
module Chan_svc = Pm_chan.Chan_svc
module Rpc_chan = Pm_chan.Rpc_chan

(* channel-backed network data path *)
module Netwire = Pm_net.Netwire
module Netstack_chan = Pm_net.Netstack_chan
module Netsvc = Pm_net.Netsvc

(* compositional storage stack *)
module Storewire = Pm_store.Storewire
module Storereg = Pm_store.Storereg
module Blockif = Pm_store.Blockif
module Blkdrv = Pm_store.Blkdrv
module Partition = Pm_store.Partition
module Block_cache = Pm_store.Cache
module Blocklog = Pm_store.Blocklog
module Kv = Pm_store.Kv
module Storechan = Pm_store.Storechan
module Store_svc = Pm_store.Store_svc

(* downloaded-code substrate *)
module Vm = Pm_vm.Vm
module Sfi_rewrite = Pm_vm.Sfi_rewrite
module Filterc = Pm_vm.Filterc

(* static checking: bytecode verifier + composition linter *)
module Verify = Pm_check.Verify
module Subsume = Pm_check.Subsume
module Lint = Pm_check_lint.Lint
module Check_svc = Pm_check_lint.Check_svc

(* baselines *)
module Sandbox = Pm_baselines.Sandbox
module Policies = Pm_baselines.Policies

(* system assembly *)
module System = System
module Replay = Replay
module Cluster = Cluster
