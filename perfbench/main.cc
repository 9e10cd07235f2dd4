/**
 * @file
 * perfbench: host throughput of the simulator on four fixed baskets.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--basket canonical|held-out] [--commit ID] [--out-dir D]
 *
 * --trace 0 measures the end-to-end metrics: whole passes over the
 * workload's cells through the public runExperiment() path, repeated
 * for S seconds, plus several set-up-only passes for setup_s.
 * --trace 1 measures the per-layer ledger: untraced and traced passes
 * alternate for S/2 seconds, then fixed-size probes (PDES, observability
 * overhead) and an isolated replay of one cell's access stream.
 *
 * The last stdout line is one JSON object {correct, attempted, failed,
 * metrics}. The exit code is 1 when a correctness check fails, 2 on a
 * usage error and 3 when the binary is not an optimised Release build.
 * README.md in this directory has the metric and workload tables.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "basket.hh"
#include "core/experiment.hh"
#include "direct.hh"
#include "replay.hh"
#include "telemetry/session.hh"
#include "workloads/registry.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using ladm::RunMetrics;

namespace
{

/** Set-up-only passes before each measured pass; setup_s is their median. */
constexpr int kSetupPassesPerPass = 3;
/** Fewest measured passes per run, whatever --seconds says. */
constexpr size_t kMinPasses = 3;
/** Fewest (untraced, traced) pass pairs in a traced run. */
constexpr size_t kMinTracedPairs = 2;
/** Accesses recorded from one cell for the layer replays. */
constexpr size_t kStreamCap = size_t{1} << 20;
/** Fresh-instance repeats of each layer replay. */
constexpr int kReplayRepeats = 3;

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    int trace = 0;
    BasketKind basket = BasketKind::Canonical;
    std::string commit = "unknown";
    std::string outDir;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 [--basket canonical|held-out] "
                 "[--commit ID] [--out-dir D]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload") {
                a.workload = v;
                have_workload = true;
            } else if (flag == "--seed") {
                a.seed = std::stoull(v);
            } else if (flag == "--seconds") {
                a.seconds = std::stod(v);
            } else if (flag == "--trace") {
                a.trace = std::stoi(v);
            } else if (flag == "--basket") {
                if (v == "canonical")
                    a.basket = BasketKind::Canonical;
                else if (v == "held-out")
                    a.basket = BasketKind::HeldOut;
                else
                    usage("unknown basket " + v);
            } else if (flag == "--commit") {
                a.commit = v;
            } else if (flag == "--out-dir") {
                a.outDir = v;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace takes 0 or 1");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
secondsSince(int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** Cell executions and correctness checks of one run. */
struct Ledger
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> problems;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            problems.push_back(what);
    }

    /** Run @p fn as one cell execution; a throw counts as a failure. */
    template <typename Fn>
    bool
    attempt(const Cell &c, Fn fn)
    {
        ++attempted;
        try {
            fn();
            return true;
        } catch (const std::exception &e) {
            ++failed;
            std::fprintf(stderr, "perfbench: cell %s failed: %s\n",
                         c.label().c_str(), e.what());
            return false;
        }
    }
};

struct CellRun
{
    bool ok = false;
    RunMetrics m;
    int64_t numTbs = 0;
    double seconds = 0.0;
};

/**
 * One untraced pass: every cell, in @p order, through runExperiment().
 * A cell's time covers makeWorkload() too, as bench_simperf's does.
 */
std::vector<CellRun>
experimentPass(const std::vector<Cell> &cells,
               const std::vector<size_t> &order, Ledger &led)
{
    std::vector<CellRun> out(cells.size());
    for (const size_t i : order) {
        CellRun &r = out[i];
        const int64_t t0 = nowNs();
        r.ok = led.attempt(cells[i], [&] {
            auto w = ladm::workloads::makeWorkload(cells[i].workload,
                                                   cells[i].scale);
            auto bundle = ladm::makeBundle(cells[i].policy);
            r.numTbs = w->dims().numTbs();
            r.m = ladm::runExperiment(*w, *bundle, cells[i].cfg, 1);
        });
        r.seconds = secondsSince(t0);
    }
    return out;
}

std::vector<Cell>
withShards(std::vector<Cell> cells, int shards)
{
    for (Cell &c : cells)
        c.cfg.shards = shards;
    return cells;
}

/** Index of the cell with the fewest (or most) sector accesses. */
size_t
pickCell(const std::vector<CellRun> &runs, bool largest)
{
    size_t best = runs.size();
    for (size_t i = 0; i < runs.size(); ++i) {
        if (!runs[i].ok)
            continue;
        if (best == runs.size() ||
            (largest ? runs[i].m.sectorAccesses > runs[best].m.sectorAccesses
                     : runs[i].m.sectorAccesses <
                           runs[best].m.sectorAccesses))
            best = i;
    }
    return best;
}

/** Checks on the passes' simulated statistics; returns the digest. */
double
checkPasses(const std::vector<std::vector<CellRun>> &passes,
            const std::vector<Cell> &cells, Ledger &led,
            std::vector<std::string> &rows)
{
    rows.assign(cells.size(), "failed");
    for (size_t i = 0; i < cells.size(); ++i) {
        const CellRun &first = passes.front()[i];
        if (!first.ok)
            continue;
        rows[i] = simulatedRow(first.m);
        const std::string bad = checkMetrics(first.m, first.numTbs);
        led.check(bad.empty(), cells[i].label() + ": " + bad);
        for (const auto &p : passes)
            led.check(!p[i].ok || simulatedRow(p[i].m) == rows[i],
                      cells[i].label() +
                          ": simulated statistics differ between passes");
    }
    return basketDigest(rows);
}

/**
 * The PDES engine really ran: engine.pdes.shards reads 4, there was no
 * fallback to the serial loop, and windows advanced.
 */
void
checkSharded(const Cell &c, const DirectResult &d, Ledger &led)
{
    led.check(d.pdesShards == 4.0,
              c.label() + ": engine.pdes.shards reads " +
                  std::to_string(d.pdesShards) + ", not 4");
    led.check(d.fallback == ladm::KernelEngine::PdesFallback::None,
              c.label() + ": engine fell back to the serial loop");
    led.check(d.pdesWindows > 0.0, c.label() + ": no PDES window ran");
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string o = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    }
    return o + "\"";
}

std::string
compilerId()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

struct Report
{
    std::vector<Metric> metrics;  ///< the contract's metrics
    std::vector<Metric> extra;    ///< printed and recorded only
    std::vector<std::string> cellRows;
    /** Wall time of each cell (inner) in each measured pass (outer). */
    std::vector<std::vector<double>> cellSeconds;
};

void
emit(const Args &a, const std::vector<Cell> &cells, const Report &rep,
     const Ledger &led)
{
    std::ostringstream host;
    host << "{\"host_cores\":" << std::thread::hardware_concurrency()
         << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
         << ",\"compiler\":" << jsonString(compilerId())
         << ",\"commit\":" << jsonString(a.commit) << "}";
    std::printf("host %s\n", host.str().c_str());
    std::printf("workload %s  seed %" PRIu64 "  basket %s  trace %d\n",
                a.workload.c_str(), a.seed,
                a.basket == BasketKind::Canonical ? "canonical" : "held-out",
                a.trace);
    for (size_t i = 0; i < cells.size(); ++i)
        std::printf("  cell %zu  %s\n", i, cells[i].label().c_str());
    for (const auto *list : {&rep.metrics, &rep.extra})
        for (const Metric &m : *list)
            std::printf("  %-32s %24.17g  %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    for (const std::string &p : led.problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());

    std::ostringstream line;
    line << "{\"correct\":" << (led.problems.empty() ? "true" : "false")
         << ",\"attempted\":" << led.attempted
         << ",\"failed\":" << led.failed << ",\"metrics\":{";
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        line << (i ? "," : "") << jsonString(m.name) << ":{\"value\":"
             << jsonNumber(m.value) << ",\"unit\":" << jsonString(m.unit)
             << "}";
    }
    line << "}}";

    if (!a.outDir.empty()) {
        const std::string path = a.outDir + "/result-" + a.workload +
                                 "-seed" + std::to_string(a.seed) +
                                 "-trace" + std::to_string(a.trace) +
                                 ".json";
        std::ofstream os(path);
        os << "{\"host\":" << host.str()
           << ",\"workload\":" << jsonString(a.workload)
           << ",\"seed\":" << a.seed << ",\"cells\":[";
        for (size_t i = 0; i < cells.size(); ++i)
            os << (i ? "," : "") << "{\"cell\":"
               << jsonString(cells[i].label())
               << ",\"row\":" << jsonString(rep.cellRows[i]) << "}";
        os << "],\"cell_seconds\":[";
        for (size_t p = 0; p < rep.cellSeconds.size(); ++p) {
            os << (p ? "," : "") << "[";
            for (size_t i = 0; i < rep.cellSeconds[p].size(); ++i)
                os << (i ? "," : "") << jsonNumber(rep.cellSeconds[p][i]);
            os << "]";
        }
        os << "],\"extra\":{";
        for (size_t i = 0; i < rep.extra.size(); ++i)
            os << (i ? "," : "") << jsonString(rep.extra[i].name) << ":"
               << jsonNumber(rep.extra[i].value);
        os << "},\"problems\":[";
        for (size_t i = 0; i < led.problems.size(); ++i)
            os << (i ? "," : "") << jsonString(led.problems[i]);
        os << "],\"result\":" << line.str() << "}\n";
    }
    std::printf("%s\n", line.str().c_str());
    std::fflush(stdout);
}

/** trace 0: end-to-end metrics through runExperiment(). */
Report
endToEnd(const Args &a, const std::vector<Cell> &cells,
         const std::vector<size_t> &order, Ledger &led)
{
    Report rep;

    // setup_s: the calls runExperiment() hides, timed from outside in
    // set-up-only passes that interleave with the measured passes, so
    // both sample the same stretch of host load.
    std::vector<double> setup;
    auto setupPass = [&] {
        SpanLog log;
        for (const size_t i : order) {
            DirectOptions o;
            o.spans = &log;
            o.cellId = static_cast<uint32_t>(i);
            o.setupOnly = true;
            led.attempt(cells[i], [&] { runCellDirect(cells[i], o); });
        }
        double s = 0.0;
        for (const char *name : setupSpanNames())
            s += log.seconds(name);
        setup.push_back(s);
    };

    std::vector<std::vector<CellRun>> passes;
    const int64_t t0 = nowNs();
    while (passes.size() < kMinPasses || secondsSince(t0) < a.seconds) {
        for (int k = 0; k < kSetupPassesPerPass; ++k)
            setupPass();
        passes.push_back(experimentPass(cells, order, led));
    }

    // Throughput over the cells that never failed, each cell timed by
    // its fastest pass. Other tenants of the host only ever add time, so
    // the fastest pass is the steadiest estimate of the simulator's own
    // cost (bench_simperf likewise keeps its fastest pass).
    uint64_t steps = 0, sectors = 0;
    double wall = 0.0;
    for (size_t i = 0; i < cells.size(); ++i) {
        double fastest = 0.0;
        bool ok = true;
        for (const auto &p : passes) {
            ok = ok && p[i].ok;
            if (&p == &passes.front() || p[i].seconds < fastest)
                fastest = p[i].seconds;
        }
        if (!ok)
            continue;
        steps += passes.front()[i].m.warpSteps;
        sectors += passes.front()[i].m.sectorAccesses;
        wall += fastest;
    }
    const double digest = checkPasses(passes, cells, led, rep.cellRows);
    for (const auto &p : passes) {
        rep.cellSeconds.emplace_back();
        for (const CellRun &r : p)
            rep.cellSeconds.back().push_back(r.seconds);
    }

    if (a.workload == "pdes") {
        const std::vector<CellRun> serial =
            experimentPass(withShards(cells, 1), order, led);
        for (size_t i = 0; i < cells.size(); ++i) {
            const CellRun &s4 = passes.front()[i];
            if (!s4.ok || !serial[i].ok)
                continue;
            led.check(s4.m.warpSteps == serial[i].m.warpSteps &&
                          s4.m.sectorAccesses == serial[i].m.sectorAccesses,
                      cells[i].label() +
                          ": shards=4 and shards=1 did different work");
        }
        const size_t probe = pickCell(passes.front(), false);
        if (probe < cells.size()) {
            DirectResult d;
            if (led.attempt(cells[probe], [&] {
                    d = runCellDirect(cells[probe], DirectOptions{});
                })) {
                checkSharded(cells[probe], d, led);
                led.check(simulatedRow(d.m) == rep.cellRows[probe],
                          cells[probe].label() +
                              ": direct path disagrees with runExperiment");
            }
        }
    }

    rep.metrics = {
        {"warp_steps_per_sec", wall > 0.0 ? steps / wall : 0.0, "1/s"},
        {"sector_accesses_per_sec", wall > 0.0 ? sectors / wall : 0.0,
         "1/s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    rep.extra = {
        {"cells_attempted", static_cast<double>(led.attempted), "count"},
        {"cells_failed", static_cast<double>(led.failed), "count"},
        {"passes", static_cast<double>(passes.size()), "count"},
        {"core.sim_digest", digest, "hash"},
    };
    return rep;
}

/** trace 1: the per-layer ledger. */
Report
perLayer(const Args &a, const std::vector<Cell> &cells,
         const std::vector<size_t> &order, Ledger &led)
{
    Report rep;
    const size_t n = cells.size();

    // Untraced and traced passes alternate so drift hits both alike. They
    // get half the run's seconds; the probes and replays below take
    // roughly the other half.
    std::vector<std::vector<CellRun>> untraced;
    std::vector<std::vector<DirectResult>> traced;
    std::vector<SpanLog> logs;
    std::vector<double> untracedWall, tracedWall;
    const int64_t t0 = nowNs();
    while (traced.size() < kMinTracedPairs ||
           secondsSince(t0) < 0.5 * a.seconds) {
        untraced.push_back(experimentPass(cells, order, led));
        double u = 0.0;
        for (const CellRun &r : untraced.back())
            u += r.seconds;
        untracedWall.push_back(u);

        logs.emplace_back();
        std::vector<DirectResult> pass(n);
        std::vector<bool> ok(n, false);
        const int64_t p0 = nowNs();
        for (const size_t i : order) {
            DirectOptions o;
            o.spans = &logs.back();
            o.cellId = static_cast<uint32_t>(i);
            o.timeWarpSteps = true;
            ok[i] = led.attempt(cells[i],
                                [&] { pass[i] = runCellDirect(cells[i], o); });
        }
        tracedWall.push_back(secondsSince(p0));
        for (size_t i = 0; i < n; ++i) {
            const CellRun &u0 = untraced.back()[i];
            led.check(!ok[i] || !u0.ok ||
                          simulatedRow(pass[i].m) == simulatedRow(u0.m),
                      cells[i].label() +
                          ": traced and untraced statistics differ");
            if (!ok[i])
                pass[i].m.error = "failed";
        }
        traced.push_back(std::move(pass));
    }
    const double digest = checkPasses(untraced, cells, led, rep.cellRows);

    auto spanMedian = [&](const char *name) {
        std::vector<double> v;
        for (const SpanLog &l : logs)
            v.push_back(l.seconds(name));
        return median(v);
    };
    std::vector<double> stepNs;
    for (const auto &pass : traced) {
        uint64_t calls = 0;
        int64_t ns = 0;
        for (const DirectResult &d : pass) {
            calls += d.warpStepCalls;
            ns += d.warpStepNs;
        }
        stepNs.push_back(calls ? static_cast<double>(ns) / calls : 0.0);
    }

    // Simulated model, summed over the first traced pass.
    uint64_t calls = 0, sectors = 0, cycles = 0, l1h = 0, l1a = 0, l2h = 0,
             l2a = 0, fl = 0, fr = 0, gpu_bytes = 0, faults = 0, merges = 0;
    for (const DirectResult &d : traced.front()) {
        if (d.m.failed())
            continue;
        calls += d.warpStepCalls;
        sectors += d.m.sectorAccesses;
        cycles += d.m.cycles;
        l1h += d.l1Hits;
        l1a += d.l1Accesses;
        l2h += d.l2Hits;
        l2a += d.l2Accesses;
        fl += d.m.fetchLocal;
        fr += d.m.fetchRemote;
        gpu_bytes += d.m.interGpuBytes;
        faults += d.m.uvmFaults;
        merges += d.mshrMerges;
    }
    auto ratio = [](uint64_t x, uint64_t y) {
        return y ? static_cast<double>(x) / static_cast<double>(y) : 0.0;
    };

    // PDES probe: the same cells at shards=1 and shards=4.
    double k1 = 0.0, k4 = 0.0, windows = 0.0, deferred = 0.0, barrier = 0.0;
    {
        const std::vector<Cell> c1 = withShards(cells, 1);
        const std::vector<Cell> c4 = withShards(cells, 4);
        for (const size_t i : order) {
            DirectResult d1, d4;
            if (!led.attempt(c1[i], [&] { d1 = runCellDirect(c1[i], {}); }) ||
                !led.attempt(c4[i], [&] { d4 = runCellDirect(c4[i], {}); }))
                continue;
            led.check(d1.m.warpSteps == d4.m.warpSteps &&
                          d1.m.sectorAccesses == d4.m.sectorAccesses,
                      cells[i].label() +
                          ": shards=4 and shards=1 did different work");
            if (a.workload == "pdes")
                checkSharded(c4[i], d4, led);
            k1 += static_cast<double>(d1.runKernelNs);
            k4 += static_cast<double>(d4.runKernelNs);
            windows += d4.pdesWindows;
            deferred += d4.pdesDeferredOps;
            barrier += d4.pdesBarrierWaitNs;
        }
    }

    // Observability: attribution + heatmap on, against the untraced
    // passes; then whether it forces a shards=4 cell onto the serial loop.
    double obsWall = 0.0;
    double forcesSerial = 0.0;
    {
        ladm::TelemetryOptions on;
        on.obsAttribution = true;
        on.obsHeatmap = true;
        ladm::telemetry::session().configure(on);
        for (const CellRun &r : experimentPass(cells, order, led))
            obsWall += r.seconds;
        const size_t probe = pickCell(untraced.front(), false);
        if (probe < n) {
            const Cell c4 = withShards({cells[probe]}, 4).front();
            DirectResult d;
            if (led.attempt(c4, [&] { d = runCellDirect(c4, {}); }))
                forcesSerial =
                    d.fallback != ladm::KernelEngine::PdesFallback::None;
        }
        ladm::telemetry::session().configure(ladm::TelemetryOptions{});
    }

    // Layer replays of the cell with the most sector accesses, recorded
    // on the serial engine.
    LayerCosts lc;
    size_t recorded = 0;
    const size_t rec = pickCell(untraced.front(), true);
    if (rec < n) {
        const Cell c1 = withShards({cells[rec]}, 1).front();
        AccessStream stream;
        stream.cap = kStreamCap;
        DirectOptions o;
        o.record = &stream;
        if (led.attempt(c1, [&] { runCellDirect(c1, o); }))
            lc = replayLayers(c1, stream, kReplayRepeats);
        recorded = stream.accesses.size();
    }

    const double runKernel = spanMedian("sim.run_kernel");
    const double warpStepNs = median(stepNs);
    const double shards = 4.0;
    rep.metrics = {
        {"workloads.make_s", spanMedian("workloads.make"), "s"},
        {"workloads.warp_step_ns", warpStepNs, "ns"},
        {"workloads.warp_steps", static_cast<double>(calls), "count"},
        {"core.prepare_s", spanMedian("core.prepare"), "s"},
        {"sched.assign_s", spanMedian("sched.assign"), "s"},
        {"sim.system_build_s", spanMedian("sim.system_build"), "s"},
        {"sim.run_kernel_s", runKernel, "s"},
        {"sim.mem_access_ns", lc.memAccessNs, "ns"},
        {"sim.mshr_upsert_ns", lc.mshrUpsertNs, "ns"},
        {"sim.event_queue_ns", lc.eventQueueNs, "ns"},
        {"sim.engine_residual_s",
         runKernel - static_cast<double>(calls) * warpStepNs * 1e-9 -
             static_cast<double>(sectors) * lc.memAccessNs * 1e-9,
         "s"},
        {"sim.pdes_speedup", k4 > 0.0 ? k1 / k4 : 0.0, "x"},
        {"sim.pdes_windows", windows, "count"},
        {"sim.pdes_deferred_ops", deferred, "count"},
        {"sim.pdes_barrier_wait_share",
         k4 > 0.0 ? barrier / (shards * k4) : 0.0, "ratio"},
        {"cache.l1_access_ns", lc.l1AccessNs, "ns"},
        {"cache.l2_access_ns", lc.l2AccessNs, "ns"},
        {"cache.replay_l2_hit_ratio", lc.l2HitRatio, "ratio"},
        {"mem.page_lookup_ns", lc.pageLookupNs, "ns"},
        {"interconnect.route_ns", lc.routeNs, "ns"},
        {"common.bw_book_ns", lc.bwBookNs, "ns"},
        {"obs.overhead_ratio", obsWall / median(untracedWall), "x"},
        {"obs.forces_serial", forcesSerial, "bool"},
        {"bench.trace_overhead_ratio",
         median(untracedWall) / median(tracedWall), "x"},
        {"sim.cycles", static_cast<double>(cycles), "cycles"},
        {"cache.l1_hit_rate", ratio(l1h, l1a), "ratio"},
        {"cache.l2_hit_rate", ratio(l2h, l2a), "ratio"},
        {"interconnect.offchip_pct", 100.0 * ratio(fr, fl + fr), "%"},
        {"interconnect.inter_gpu_bytes", static_cast<double>(gpu_bytes),
         "bytes"},
        {"mem.uvm_faults", static_cast<double>(faults), "count"},
        {"sim.mshr_merges", static_cast<double>(merges), "count"},
        {"core.sim_digest", digest, "hash"},
    };
    rep.extra = {
        {"cells_attempted", static_cast<double>(led.attempted), "count"},
        {"cells_failed", static_cast<double>(led.failed), "count"},
        {"pairs", static_cast<double>(traced.size()), "count"},
        {"replay.accesses", static_cast<double>(recorded), "count"},
    };

    if (!a.outDir.empty()) {
        std::ofstream os(a.outDir + "/spans-" + a.workload + "-seed" +
                         std::to_string(a.seed) + ".json");
        os << "{\"traceEvents\":[";
        bool first = true;
        for (size_t p = 0; p < logs.size(); ++p)
            logs[p].writeTraceEvents(os, static_cast<int>(p), first);
        os << "\n]}\n";
    }
    return rep;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);

    // Numbers from an unoptimised or assert-enabled build are not
    // comparable with the recorded trajectory: refuse to produce them.
    bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    release = false;
#endif
    if (!release) {
        std::fprintf(stderr,
                     "perfbench: refusing to measure a %s build; configure "
                     "with -DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }

    std::vector<Cell> cells;
    try {
        cells = makeBasket(a.workload, a.basket, a.seed);
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    }
    const std::vector<size_t> order = passOrder(cells.size(), a.seed);

    Ledger led;
    const Report rep = a.trace ? perLayer(a, cells, order, led)
                               : endToEnd(a, cells, order, led);
    emit(a, cells, rep, led);
    return led.problems.empty() ? 0 : 1;
}
