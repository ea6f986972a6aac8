//! `sfs-bench <experiment> [flags]`: every benchmark of the reproduction
//! behind one driver (see `sfs_bench::driver`). Run without arguments
//! for the experiment list.

use sfs_bench::alloc_count::CountingAlloc;

// `hotpath` reports allocations per operation; the counter is one
// thread-local increment per allocation for everything else.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(sfs_bench::driver::main(&argv));
}
