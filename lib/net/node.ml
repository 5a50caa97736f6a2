open Dapper_isa

type t = {
  n_name : string;
  n_arch : Arch.t;
  n_cores : int;
  n_ops_per_ns : float;
  n_mem_gbps : float;
  n_idle_w : float;
  n_core_w : float;
}

(* 108 W at 7 busy threads -> ~20 W idle + 12.5 W/core;
   5.1 W at 3 busy threads -> ~2.1 W idle + 1.0 W/core. *)
let xeon =
  { n_name = "xeon"; n_arch = Arch.X86_64; n_cores = 8; n_ops_per_ns = 4.2;
    n_mem_gbps = 0.5; n_idle_w = 20.5; n_core_w = 12.5 }

let rpi =
  { n_name = "rpi"; n_arch = Arch.Aarch64; n_cores = 4; n_ops_per_ns = 1.5;
    n_mem_gbps = 0.12; n_idle_w = 2.1; n_core_w = 1.0 }

(* Heterogeneous slow-tier classes for datacenter-scale sweeps. The
   Pi 5 (4x Cortex-A76 @ 2.4 GHz) trades a little efficiency for ~1.5x
   the Pi 4's speed; the Jetson-class board is faster still but its DVFS
   floor makes it the least efficient of the three per unit of work. *)
let rpi5 =
  { n_name = "rpi5"; n_arch = Arch.Aarch64; n_cores = 4; n_ops_per_ns = 2.2;
    n_mem_gbps = 0.2; n_idle_w = 3.0; n_core_w = 1.6 }

let jetson =
  { n_name = "jetson"; n_arch = Arch.Aarch64; n_cores = 6; n_ops_per_ns = 3.0;
    n_mem_gbps = 0.3; n_idle_w = 5.0; n_core_w = 2.8 }

let exec_ns n instrs = Int64.to_float instrs /. n.n_ops_per_ns

let power_w n ~busy = n.n_idle_w +. (float_of_int (min busy n.n_cores) *. n.n_core_w)
