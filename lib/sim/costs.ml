type t = {
  instr_ns : int;
  syscall_instr : int;
  lock_request_instr : int;
  lock_cache_instr : int;
  msg_latency_us : int;
  msg_cpu_instr : int;
  disk_latency_us : int;
  disk_per_kib_us : int;
  copy_byte_instr_x16 : int;
  commit_base_instr : int;
  commit_merge_instr : int;
  flush_page_instr : int;
  rw_base_instr : int;
  fork_instr : int;
  migrate_instr : int;
}

let default =
  {
    instr_ns = 2000;
    syscall_instr = 250;
    lock_request_instr = 750;
    lock_cache_instr = 100;
    msg_latency_us = 6500;
    msg_cpu_instr = 750;
    disk_latency_us = 25000;
    disk_per_kib_us = 1000;
    copy_byte_instr_x16 = 8;
    commit_base_instr = 7800;
    commit_merge_instr = 1200;
    flush_page_instr = 1000;
    rw_base_instr = 300;
    fork_instr = 4000;
    migrate_instr = 10000;
  }

let instr_us t n = n * t.instr_ns / 1000

let disk_io_us t ~bytes = t.disk_latency_us + (bytes * t.disk_per_kib_us / 1024)

let copy_instr t ~bytes = (bytes + 15) / 16 * t.copy_byte_instr_x16
