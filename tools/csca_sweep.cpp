// The unified sweep front end: drives every registered reproduction
// table (F1-F9, S3-S5, A1 — see src/bench_harness/tables.h) through the
// shared SweepRunner and writes one BENCH_<id>.json per table in the
// common schema.
//
//   csca_sweep                         # full sweep of every table
//   csca_sweep --smoke                 # the small-n conformance grids
//   csca_sweep --table=F3 --table=F4   # a subset
//   csca_sweep --jobs=8                # parallel rows; output is
//                                      # byte-identical to --jobs=1
//   csca_sweep --out-dir=results       # where the JSON lands
//   csca_sweep --list                  # print the table registry
//
// Exit status: 0 when every bound check passes, 1 when any row fails,
// 2 on bad usage.
#include "bench_harness/driver.h"

int main(int argc, char** argv) {
  return csca::bench::sweep_main(argc, argv);
}
