/**
 * @file
 * Shared sweep machinery for the figure/table reproduction binaries:
 * runs (machine, workload) grids in parallel, prints IPC tables in the
 * layout of the paper's figures, and dumps machine-readable JSON results
 * (`--json <path>`) for scripts/bench_diff.py.
 */

#ifndef RBSIM_BENCH_COMMON_HH
#define RBSIM_BENCH_COMMON_HH

#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/sampling.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace rbsim::bench
{

/** One (machine, workload) cell of a sweep. */
struct Cell
{
    std::string machine;
    std::string workload;
    SimResult result;
    //! Host-time per-stage profile (filled only under --profile).
    HostProfiler profiler;
    bool profiled = false;
    //! Sampled cells (bench/sampled_sweep): IPC is the mean over the
    //! measured windows with a 95% CI half-width; the JSON cell gains
    //! "sampled"/"ci95"/"windows" and scripts/bench_diff.py switches
    //! that cell from the exact gate to the CI-overlap gate.
    bool sampled = false;
    double sampledIpc = 0.0;
    double ci95 = 0.0;
    std::uint64_t windows = 0;
};

/** A sampled-campaign cell (result.stats carries the merged windows). */
Cell sampledCell(const SampledResult &sampled);

/** The cell's headline IPC: mean-of-windows for sampled cells, the
 * core.ipc formula otherwise. */
double cellIpc(const Cell &cell);

/**
 * Options every bench binary accepts:
 *   --json <path>     dump a structured result file (schema
 *                     "rbsim-bench-1") next to the text output
 *   --scale <n>       workload scale factor (default 1)
 *   --machines <csv>  comma-separated machine labels to keep
 *                     (e.g. "Baseline,RB-full"); default all
 *   --scheduler <m>   scheduler select mechanism: "wakeup" (default,
 *                     event-driven bitset array), "polled" (the original
 *                     per-cycle operand scan), or "oracle" (wakeup with
 *                     the polled model co-simulated every cycle as a
 *                     cross-check)
 *   --trace <prefix>  write an O3PipeView pipeline trace per sweep cell
 *                     to "<prefix>.<machine>.<workload>.trace" (load in
 *                     Konata); slow — meant for single-cell grids
 *   --trace-last <n>  ring-buffer the last n instructions per cell and
 *                     dump the ring of a failing cell (cosim mismatch or
 *                     non-halt) to "<prefix>.<machine>.<workload>.trace"
 *                     ("rbsim-bench-fail" prefix when --trace not given)
 *   --profile         host-time profiling: per-stage wall time (fetch /
 *                     dispatch / select / exec / lsq / commit / cosim /
 *                     flush) and heap-allocation counts per cell, printed
 *                     as a table and embedded in the JSON dump (the
 *                     allocation counter needs the rbsim-allochook
 *                     library, which the bench binaries link)
 *   --server <h:p>    submit the sweep to a running rbsim-serve instance
 *                     instead of simulating in-process (docs/SERVING.md);
 *                     incompatible with --trace/--trace-last/--profile,
 *                     whose artifacts are host-side
 */
struct BenchOptions
{
    std::string jsonPath;
    unsigned scale = 1;
    std::vector<std::string> machines;
    std::string scheduler = "wakeup";
    std::string tracePrefix;
    std::size_t traceLast = 0;
    bool profile = false;
    std::string server; //!< host:port of an rbsim-serve; empty = local
};

/**
 * Parse and REMOVE the shared bench flags from argv (so leftovers can be
 * forwarded, e.g. to google-benchmark). Exits with a usage message on a
 * malformed flag.
 */
BenchOptions parseBenchArgs(int &argc, char **argv);

/** Keep only the configs whose label is listed in `opts.machines`
 *  (all of them when the filter is empty). */
std::vector<MachineConfig>
filterMachines(std::vector<MachineConfig> configs,
               const BenchOptions &opts);

/**
 * Accumulates cells and scalar metrics and writes the JSON dump on
 * destruction-free explicit write(). Every bench funnels its results
 * through one of these so all dumps share one schema:
 *
 *   { "schema": "rbsim-bench-1", "bench": ..., "scale": ...,
 *     "scheduler": "wakeup"|"polled"|"oracle",
 *     "machines": [...],
 *     "cells": [ {machine, workload, ipc, host_ms, sim_khz,
 *                 stats:{counters,formulas,vectors}} ],
 *     "summary": { "hmean_ipc": {machine: value},
 *                  "hmean_sim_khz": {machine: value},
 *                  "metrics": {...} } }
 */
class BenchReport
{
  public:
    BenchReport(std::string bench, BenchOptions opts);

    void addCell(const Cell &cell);
    void addCells(const std::vector<Cell> &cells);
    /** A named scalar that isn't tied to one cell (e.g. a gate depth). */
    void addMetric(const std::string &name, double value);

    /** Write the dump if --json was given; no-op otherwise. */
    void write() const;

  private:
    std::string bench;
    BenchOptions opts;
    std::vector<Cell> cells; //!< owned copies; cheap next to a sim run
    std::vector<std::pair<std::string, double>> metrics;
};

/**
 * A synthetic cell carrying a host-throughput measurement through the
 * "rbsim-bench-1" schema: `sim_khz` becomes kilo-operations per second
 * (ops / seconds / 1e3 via the core.cycles counter) and `ipc` is pinned
 * to 1.0, so scripts/bench_diff.py gates the throughput with
 * --speed-gate unmodified while its IPC gate stays inert. Used by the
 * host-throughput micro-benches (adder_delay, interp_mips), whose cells
 * have no simulation behind them.
 */
Cell throughputCell(const std::string &machine,
                    const std::string &workload, std::uint64_t ops,
                    double seconds);

/**
 * Simulate every workload of `suite` on every config, in parallel.
 * Results are ordered workload-major, matching the input orders.
 * Co-simulation stays enabled: every cell is architecturally verified.
 *
 * Every sweep goes through the process-wide serve::SimService (the
 * shared WorkQueue worker pool with warm reset-in-place simulators), or
 * over the wire to an rbsim-serve instance under --server.
 */
std::vector<Cell> sweepSuite(const std::vector<MachineConfig> &configs,
                             const std::string &suite,
                             unsigned scale = 1);

/** Like sweepSuite over both suites (all 20 benchmarks). */
std::vector<Cell> sweepAll(const std::vector<MachineConfig> &configs,
                           unsigned scale = 1);

/** Sweep an explicit workload list (e.g. generator-backed entries from
 * gen::genWorkloadInfo) through the same service/remote machinery. */
std::vector<Cell>
sweepWorkloads(const std::vector<MachineConfig> &configs,
               const std::vector<WorkloadInfo> &workloads,
               unsigned scale = 1);

/**
 * Print a per-benchmark IPC table (benchmarks as rows, machines as
 * columns) followed by harmonic and arithmetic means, the layout of the
 * paper's Figures 9-12, and close with a per-stage cycle-accounting
 * table (retire/fetch idle, icache stalls, hole waits, issue wait).
 */
void printIpcFigure(const std::string &title,
                    const std::vector<MachineConfig> &configs,
                    const std::vector<Cell> &cells,
                    const std::vector<WorkloadInfo> &workloads);

/** The paper's four machines at a width, in figure order. */
std::vector<MachineConfig> paperMachines(unsigned width);

/**
 * Print the headline comparisons for a 4-machine sweep (Baseline,
 * RB-limited, RB-full, Ideal) next to the numbers the paper reports for
 * this figure. Skipped when --machines trimmed the grid.
 * @param paper_note the paper's claim, printed verbatim for comparison
 */
void printHeadline(const std::vector<MachineConfig> &configs,
                   const std::vector<Cell> &cells,
                   const std::string &paper_note);

} // namespace rbsim::bench

#endif // RBSIM_BENCH_COMMON_HH
