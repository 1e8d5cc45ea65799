//! Thin wrapper over [`ava_bench::suites`]: unit-stride and strided vector
//! accesses through the L2/DRAM timing model (among them a stream that
//! misses into full L2 sets), the L2 warm-up, and the scalar L1 hit path.
//! The suite body lives in the library so the `bench_baseline` recorder can
//! persist the same numbers.

use ava_bench::microbench::{header, print_result};
use ava_bench::suites::run_suite;

fn main() {
    header("memory_hierarchy");
    run_suite("memory_hierarchy", print_result);
}
