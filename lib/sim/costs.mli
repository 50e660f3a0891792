(** Cost model for the simulated 1985 hardware.

    The paper's measurements (§6) were taken on VAX 11/750 machines
    (≈ 0.5 MIPS) connected by a 10 Mb Ethernet with Interlan interfaces.
    All times are virtual microseconds. The defaults are calibrated so
    that the operation counts our implementation performs reproduce the
    paper's headline figures:

    - 750 instructions per local lock ⇒ 1.5 ms (§6.2);
    - remote lock ≈ 18 ms ≈ round-trip message + remote service (§6.2);
    - non-overlap local commit ≈ 9450 instructions of service time and
      overlap ≈ 10800 (Figure 6);
    - copying a substantial part of a page costs ≈ 1 ms per KiB
      (footnote 11). *)

type t = {
  instr_ns : int;  (** nanoseconds per instruction; 2000 = 0.5 MIPS *)
  syscall_instr : int;  (** kernel entry/exit *)
  lock_request_instr : int;  (** processing one lock request at the storage site (750, §6.2) *)
  lock_cache_instr : int;  (** validating an access against the local lock cache *)
  msg_latency_us : int;  (** one-way network latency, wire + interface *)
  msg_cpu_instr : int;  (** CPU to send or receive one lightweight message *)
  disk_latency_us : int;  (** seek + rotation for one page I/O *)
  disk_per_kib_us : int;  (** transfer time per KiB *)
  copy_byte_instr_x16 : int;
      (** instructions per 16 bytes copied during page differencing *)
  commit_base_instr : int;  (** fixed record-commit bookkeeping per page *)
  commit_merge_instr : int;  (** extra bookkeeping on the differencing path *)
  flush_page_instr : int;  (** building + issuing one shadow-page flush at prepare *)
  rw_base_instr : int;  (** fixed cost of one read/write buffer operation *)
  fork_instr : int;  (** process creation *)
  migrate_instr : int;  (** process migration CPU at each end *)
}

val default : t
(** Calibrated to the paper's environment (see above). *)

val instr_us : t -> int -> int
(** [instr_us t n] is the virtual time in µs consumed by [n] instructions. *)

val disk_io_us : t -> bytes:int -> int
(** Latency of one disk I/O transferring [bytes]. *)

val copy_instr : t -> bytes:int -> int
(** Instruction count for copying [bytes] during page differencing. *)
