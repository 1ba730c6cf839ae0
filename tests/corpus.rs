//! Harness for the promoted-counterexample corpus.
//!
//! Files under `tests/corpus/` are not discovered automatically by
//! cargo (only top-level `tests/*.rs` are test targets), so each
//! promoted schedule is included here as a `#[path]` module. To promote
//! a counterexample produced by the fuzzer (`cargo run --release -p
//! zstm-sim --bin fuzz_schedules`), copy the generated file into
//! `tests/corpus/` and add one line below — see `tests/corpus/README.md`
//! for the full workflow.

#[path = "corpus/ci_seed_0_z.rs"]
mod ci_seed_0_z;
#[path = "corpus/ci_seed_1_z.rs"]
mod ci_seed_1_z;
#[path = "corpus/ci_seed_2_z.rs"]
mod ci_seed_2_z;
#[path = "corpus/ci_seed_3_z.rs"]
mod ci_seed_3_z;
#[path = "corpus/ci_seed_4_z.rs"]
mod ci_seed_4_z;
#[path = "corpus/ci_seed_5_z.rs"]
mod ci_seed_5_z;
#[path = "corpus/ci_seed_6_z.rs"]
mod ci_seed_6_z;
#[path = "corpus/pruned_node_cycle_s_stm.rs"]
mod pruned_node_cycle_s_stm;
#[path = "corpus/read_of_long_reserved_z.rs"]
mod read_of_long_reserved_z;
#[path = "corpus/relabel_past_long_z.rs"]
mod relabel_past_long_z;
#[path = "corpus/write_skew_cs.rs"]
mod write_skew_cs;
