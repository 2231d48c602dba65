// The command-line front end for table sweeps behind tools/csca_sweep,
// which drives every table (or those named by --table). Flags:
//
//   --table=ID    sweep only this table (repeatable; default: all)
//   --smoke       the small-n conformance grids instead of the full ones
//   --jobs=N      worker threads (output is byte-identical for every N)
//   --out-dir=P   where BENCH_<id>.json files land (default bench_out)
//   --list        print the table registry and exit
//
// Exit status: 0 when every bound check passes, 1 when any row fails or
// errors, 2 on bad usage.
#pragma once

namespace csca::bench {

int sweep_main(int argc, char** argv);

}  // namespace csca::bench
