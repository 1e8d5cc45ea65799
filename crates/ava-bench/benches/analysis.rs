//! Thin wrapper over [`ava_bench::suites`]: the static analysis a composite
//! runs on itself at construction. The suite body lives in the library so
//! the `bench_baseline` recorder can persist the same numbers.

use ava_bench::microbench::{header, print_result};
use ava_bench::suites::run_suite;

fn main() {
    header("analysis");
    run_suite("analysis", print_result);
}
