/**
 * @file
 * The traced path: one cell run through the library's public calls in
 * the order runExperiment() makes them, with a span around each call
 * into a layer (makeWorkload, the GpuSystem constructor, allocateAll,
 * PolicyBundle::prepare, makeTrace, TbScheduler::assign,
 * GpuSystem::runKernel). Spans stay in memory and are written at the
 * end of the run. The warp-step generator is timed in aggregate through
 * a TraceSource wrapper, not with a span per call.
 */

#ifndef PERFBENCH_DIRECT_HH
#define PERFBENCH_DIRECT_HH

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "basket.hh"
#include "core/metrics.hh"
#include "sim/kernel_engine.hh"
#include "sim/trace_source.hh"

namespace perfbench
{

/** Nanoseconds on the steady clock. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One timed interval. Spans of one cell share its id. */
struct Span
{
    uint32_t cell = 0;
    const char *name = "";
    int parent = -1; ///< index of the enclosing span, -1 for a cell span
    int64_t startNs = 0;
    int64_t endNs = 0;
};

/** In-memory span store; written out once, when the run ends. */
class SpanLog
{
  public:
    int begin(uint32_t cell, const char *name, int parent);
    void end(int id) { spans_[id].endNs = nowNs(); }

    /** Sum of the durations of every span called @p name, in seconds. */
    double seconds(const char *name) const;

    /** Chrome trace-event JSON; @p pass becomes the thread id. */
    void writeTraceEvents(std::ostream &os, int pass, bool &first) const;

  private:
    std::vector<Span> spans_;
};

/** RAII span; a null log makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, uint32_t cell, const char *name, int parent)
        : log_(log), id_(log ? log->begin(cell, name, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog *log_;
    int id_;
};

/** The span names that make up setup_s, in call order. */
const std::vector<const char *> &setupSpanNames();

/**
 * Access stream of one cell, as the warp-step generator produced it, in
 * the order the engine asked for it. Each access carries the index of
 * its warp step, which replay.cc turns into a non-decreasing cycle stamp.
 */
struct AccessStream
{
    struct Access
    {
        ladm::Addr addr = 0;
        uint32_t step = 0;
        uint16_t sm = 0;
        bool write = false;
    };

    size_t cap = 0;
    std::vector<Access> accesses;
    uint32_t steps = 0;          ///< warp steps seen while recording
    std::vector<uint16_t> tbSm;  ///< SM each threadblock is charged to
    ladm::Cycles cycles = 0;     ///< simulated length of the kernel
};

/**
 * Pass-through TraceSource that counts and, when asked, times every
 * warpStep() call or records its accesses. One instance per engine
 * shard: its counters are not shared between threads.
 */
class TimedTrace : public ladm::TraceSource
{
  public:
    TimedTrace(ladm::TraceSource &inner, bool timed, AccessStream *record)
        : inner_(inner), timed_(timed), record_(record)
    {
    }

    bool warpStep(ladm::TbId tb, int warp, int64_t step,
                  std::vector<ladm::MemAccess> &out) override;
    double instrsPerStep() const override { return inner_.instrsPerStep(); }

    uint64_t calls = 0;
    int64_t ns = 0;

  private:
    ladm::TraceSource &inner_;
    const bool timed_;
    AccessStream *const record_;
};

struct DirectOptions
{
    SpanLog *spans = nullptr; ///< null = no spans
    uint32_t cellId = 0;
    bool setupOnly = false;   ///< stop after TbScheduler::assign
    bool timeWarpSteps = false;
    AccessStream *record = nullptr; ///< needs a serial (shards=1) cell
};

struct DirectResult
{
    ladm::RunMetrics m;
    uint64_t l1Hits = 0, l1Accesses = 0;
    uint64_t l2Hits = 0, l2Accesses = 0;
    uint64_t mshrMerges = 0;
    uint64_t warpStepCalls = 0;
    int64_t warpStepNs = 0;
    int64_t runKernelNs = 0;
    // engine.pdes.* registry stats (0 when the engine is serial)
    double pdesShards = 0.0;
    double pdesWindows = 0.0;
    double pdesDeferredOps = 0.0;
    double pdesBarrierWaitNs = 0.0;
    ladm::KernelEngine::PdesFallback fallback =
        ladm::KernelEngine::PdesFallback::None;
};

/**
 * Run @p c the way runExperiment() does for a single launch, but from
 * the benchmark's own code so each layer call can be timed. The
 * simulated statistics are those runExperiment() returns; the untraced
 * and traced passes are checked against each other cell for cell.
 */
DirectResult runCellDirect(const Cell &c, const DirectOptions &o);

} // namespace perfbench

#endif // PERFBENCH_DIRECT_HH
