/**
 * @file
 * Tests for ladm::snapshot (checkpoint/resume), the atomic-sink layer,
 * the resumable sweep journal, and the PDES fallback diagnostic.
 *
 * The load-bearing suite is the kill-and-resume differential: a run
 * deterministically "killed" at cycle N (Options::testStopAt stands in
 * for SIGTERM at the engine's safe point), then resumed from the
 * flushed checkpoint, must be bit-identical -- every metric, every
 * registry counter in the CSV sink -- to the uninterrupted reference.
 * Covered for a regular workload (VecAdd) and an irregular one
 * (PageRank), in the serial loop and the sharded PDES loop, and across
 * a multi-launch experiment.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <unistd.h>

#include "check/invariants.hh"
#include "common/atomic_file.hh"
#include "common/serial.hh"
#include "common/sim_error.hh"
#include "config/presets.hh"
#include "core/experiment.hh"
#include "core/sweep_journal.hh"
#include "sched/kernel_wide.hh"
#include "sim/gpu_system.hh"
#include "snapshot/snapshot.hh"
#include "telemetry/json_reader.hh"
#include "telemetry/session.hh"
#include "workloads/registry.hh"

namespace ladm
{
namespace
{

/**
 * @p name under the gtest temp dir, prefixed with the running test's
 * name and this process's pid: ctest -j runs each case in its own
 * process, all sharing one TempDir(), so fixed names would let
 * concurrent cases overwrite each other's checkpoints and sinks.
 */
std::string
tmpPath(const std::string &name)
{
    const ::testing::TestInfo *t =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "/" + (t ? t->name() : "none") + "." +
           std::to_string(::getpid()) + "." + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * Registry lines that report host wall-clock (PDES barrier waits) are
 * real time, not simulated time: they legitimately differ between an
 * interrupted-and-resumed run and an uninterrupted one, so the
 * bit-identical comparison drops them (see docs/robustness.md).
 */
std::string
dropWallClockLines(const std::string &csv)
{
    std::istringstream in(csv);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("barrier_wait_ns") == std::string::npos)
            out << line << '\n';
    }
    return out.str();
}

class SnapshotTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        snapshot::resetForTest();
        telemetry::session().resetForTest();
        ::unsetenv("LADM_SHARDS");
        ::unsetenv("LADM_CHECKPOINT_EVERY");
        ::unsetenv("LADM_RESUME");
    }
    void
    TearDown() override
    {
        snapshot::resetForTest();
        telemetry::session().resetForTest();
    }
};

/** Four steps of one sector per warp, each TB on its own page. */
class TinyTrace : public TraceSource
{
  public:
    bool
    warpStep(TbId tb, int, int64_t step,
             std::vector<MemAccess> &out) override
    {
        if (step >= 4)
            return false;
        out.push_back({static_cast<Addr>(tb) * 4096 +
                           static_cast<Addr>(step) * 32,
                       false});
        return true;
    }
};

RunMetrics
runOnce(const char *workload, int shards, double scale, int launches = 1,
        SystemConfig cfg = presets::multiGpu4x4())
{
    cfg.shards = shards;
    auto w = workloads::makeWorkload(workload, scale);
    return runExperiment(*w, Policy::Ladm, cfg, launches);
}

/**
 * The differential: reference run, killed run, resumed run; the resumed
 * metrics and the full registry CSV must match the reference byte for
 * byte (modulo wall-clock gauges).
 *
 * @param stop_at deterministic kill cycle; 0 = half the reference run.
 *                Note the stop fires at the engine's *event-time* safe
 *                points: single-step kernels (VecAdd) keep all event
 *                times near launch even though completions run long, so
 *                they need an explicitly early stop.
 */
void
expectResumeIdentical(const char *workload, int shards, double scale,
                      int launches = 1, Cycles stop_at = 0,
                      const SystemConfig &cfg = presets::multiGpu4x4())
{
    const std::string ckpt = tmpPath("resume.ckpt");
    const std::string ref_csv = tmpPath("ref.csv");
    const std::string res_csv = tmpPath("res.csv");

    // Uninterrupted reference, with the CSV sink armed so the whole
    // stat tree lands in a comparable file.
    TelemetryOptions topts;
    topts.statsCsvPath = ref_csv;
    telemetry::session().configure(topts);
    const RunMetrics ref = runOnce(workload, shards, scale, launches, cfg);
    telemetry::session().finalize();
    telemetry::session().resetForTest();
    if (stop_at == 0)
        stop_at = ref.cycles / 2;
    ASSERT_GT(ref.cycles, stop_at) << "workload too small to interrupt";

    // Killed run: stop deterministically at the first safe point at or
    // after stop_at. runExperiment dies with Interrupted after the
    // final checkpoint is flushed.
    snapshot::resetForTest();
    snapshot::options().out = ckpt;
    snapshot::options().testStopAt = stop_at;
    bool interrupted = false;
    try {
        runOnce(workload, shards, scale, launches, cfg);
    } catch (const snapshot::Interrupted &e) {
        interrupted = true;
        EXPECT_EQ(e.path(), ckpt);
        EXPECT_GE(e.cycle(), stop_at);
        EXPECT_LT(e.cycle(), ref.cycles);
    }
    ASSERT_TRUE(interrupted) << "testStopAt never fired";

    // Resumed run: restores the checkpoint and completes.
    snapshot::resetForTest();
    snapshot::options().resume = ckpt;
    topts.statsCsvPath = res_csv;
    telemetry::session().configure(topts);
    const RunMetrics res = runOnce(workload, shards, scale, launches, cfg);
    telemetry::session().finalize();
    telemetry::session().resetForTest();

    // Bit-identical: the one-row metrics and the whole registry.
    EXPECT_EQ(csvRow(ref), csvRow(res));
    EXPECT_EQ(dropWallClockLines(slurp(ref_csv)),
              dropWallClockLines(slurp(res_csv)));
}

TEST_F(SnapshotTest, ResumeIdenticalVecAddSerial)
{
    // VecAdd warps are single-step, so every event time sits at the
    // first compute gap; stop there (mid-kernel: the step-0 wave has
    // executed, the retire wave has not).
    expectResumeIdentical("VecAdd", 1, 0.25, 1, /*stop_at=*/2);
}

TEST_F(SnapshotTest, ResumeIdenticalConvSharded)
{
    // Regular multi-step workload under the sharded PDES loop: the
    // window barrier is the safe point. (Sharded VecAdd completes
    // inside one conservative window, so it has no mid-kernel barrier
    // to stop at -- CONV is the regular workload with enough steps.)
    expectResumeIdentical("CONV", 4, 0.2);
}

TEST_F(SnapshotTest, ResumeIdenticalPageRankSerial)
{
    expectResumeIdentical("PageRank", 1, 0.1);
}

TEST_F(SnapshotTest, ResumeIdenticalPageRankSharded)
{
    expectResumeIdentical("PageRank", 4, 0.1);
}

TEST_F(SnapshotTest, ResumeIdenticalCrossbar)
{
    // Flat crossbar: the fabric image is the per-node switch ports only.
    expectResumeIdentical("PageRank", 1, 0.1, 1, 0,
                          presets::multiGpuFlat(4, 90.0));
}

TEST_F(SnapshotTest, ResumeIdenticalRingSharded)
{
    // Flat ring: the fabric image is the ring segments only; the PDES
    // window is the ring hop latency.
    expectResumeIdentical("PageRank", 4, 0.1, 1, 0,
                          presets::mcmRing(4, 1400.0));
}

TEST_F(SnapshotTest, ResumeIdenticalMultiLaunch)
{
    // Half of a three-launch experiment lands inside a later launch:
    // the restore replays completed launches host-side and resumes the
    // in-flight one.
    expectResumeIdentical("VecAdd", 1, 0.25, /*launches=*/3);
}

// --- format-level behaviour ------------------------------------------------

TEST_F(SnapshotTest, SerialRoundTrip)
{
    serial::Writer w;
    w.beginSection(7);
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.i64(-42);
    w.f64(3.14159);
    w.str("hello checkpoint");
    std::vector<uint64_t> v{1, 2, 3, 5, 8};
    w.vec(v);
    w.endSection();
    w.beginSection(9);
    w.u64(99);
    w.endSection();

    serial::Reader r(w.finish(0x1122334455667788ull));
    EXPECT_EQ(r.fingerprint(), 0x1122334455667788ull);
    EXPECT_TRUE(r.hasSection(7));
    EXPECT_TRUE(r.hasSection(9));
    EXPECT_FALSE(r.hasSection(8));
    // Sections open in any order.
    r.openSection(9);
    EXPECT_EQ(r.u64(), 99u);
    r.openSection(7);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), 3.14159);
    EXPECT_EQ(r.str(), "hello checkpoint");
    std::vector<uint64_t> v2;
    r.vec(v2);
    EXPECT_EQ(v2, v);
}

TEST_F(SnapshotTest, EmptyVecAndStrRoundTrip)
{
    // An empty vector reads back through a zero-length copy into a
    // null data() pointer; that copy must not happen at all.
    serial::Writer w;
    w.beginSection(3);
    w.vec(std::vector<int>{});
    w.str("");
    w.vec(std::vector<uint32_t>{7});
    w.endSection();

    serial::Reader r(w.finish(1));
    r.openSection(3);
    std::vector<int> empty; // data() == nullptr
    r.vec(empty);
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(r.str(), "");
    std::vector<uint32_t> one;
    r.vec(one);
    EXPECT_EQ(one, std::vector<uint32_t>{7});
}

TEST_F(SnapshotTest, ReaderRejectsCorruptedSection)
{
    serial::Writer w;
    w.beginSection(1);
    for (int i = 0; i < 64; ++i)
        w.u64(static_cast<uint64_t>(i));
    w.endSection();
    std::string image = w.finish(7);
    image[image.size() / 2] ^= 0x40; // flip one payload bit
    EXPECT_THROW({ serial::Reader r(std::move(image)); }, SimError);
}

TEST_F(SnapshotTest, CorruptedCheckpointFailsRecoverably)
{
    const std::string ckpt = tmpPath("corrupt.ckpt");
    snapshot::options().out = ckpt;
    snapshot::options().testStopAt = 2; // VecAdd events all sit early
    EXPECT_THROW(runOnce("VecAdd", 1, 0.2), snapshot::Interrupted);

    std::string image = slurp(ckpt);
    ASSERT_FALSE(image.empty());
    image[image.size() / 2] ^= 0x01;
    {
        std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
        out << image;
    }

    // A bit-flipped checkpoint surfaces as a recoverable SimError (CRC
    // mismatch), never as garbage state or a crash.
    snapshot::resetForTest();
    snapshot::options().resume = ckpt;
    EXPECT_THROW(runOnce("VecAdd", 1, 0.2), SimError);
}

TEST_F(SnapshotTest, FingerprintMismatchRefused)
{
    const std::string ckpt = tmpPath("fp.ckpt");
    snapshot::options().out = ckpt;
    snapshot::options().testStopAt = 2; // VecAdd events all sit early
    EXPECT_THROW(runOnce("VecAdd", 1, 0.2), snapshot::Interrupted);

    // Same workload, different machine: the restore must refuse.
    snapshot::resetForTest();
    snapshot::options().resume = ckpt;
    SystemConfig other = presets::multiGpu4x4();
    other.l2SizePerChiplet *= 2;
    auto w = workloads::makeWorkload("VecAdd", 0.2);
    EXPECT_THROW(runExperiment(*w, Policy::Ladm, other), SimError);
}

TEST_F(SnapshotTest, CheckpointFromOtherLoopRefused)
{
    // The fingerprint pins the shard count, so the reachable way to
    // meet a checkpoint from the other loop is a sharded image resumed
    // by a caller that hands the engine no per-shard trace instances:
    // that forces the serial loop.
    const std::string ckpt = tmpPath("sharded.ckpt");
    snapshot::options().out = ckpt;
    snapshot::options().testStopAt = 1000;
    EXPECT_THROW(runOnce("PageRank", 4, 0.1), snapshot::Interrupted);

    snapshot::resetForTest();
    snapshot::options().resume = ckpt;
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.shards = 4;
    auto chk = snapshot::makeRunCheckpointer(cfg);
    ASSERT_NE(chk, nullptr);
    GpuSystem sys(cfg);
    sys.attachCheckpointer(chk.get());
    LaunchDims dims;
    dims.grid = {32, 1};
    dims.block = {128, 1};
    KernelWideScheduler sched;
    TinyTrace trace;
    try {
        sys.runKernel(dims, trace, sched.assign(dims, cfg),
                      L2InsertPolicy::RTwice, /*flush_caches=*/false,
                      /*shard_traces=*/{}, /*resume=*/true);
        FAIL() << "a sharded checkpoint resumed on the serial loop";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Config);
        EXPECT_EQ(e.summary(), "checkpoint state mismatch");
        ASSERT_FALSE(e.diagnostics().empty());
        EXPECT_EQ(e.diagnostics()[0].field, "checkpoint.engine");
        EXPECT_EQ(e.diagnostics()[0].value, "sharded PDES");
    }
    EXPECT_EQ(sys.engine().pdesFallback(),
              KernelEngine::PdesFallback::MissingShardTraces);
}

TEST_F(SnapshotTest, OldFormatVersionRefused)
{
    const std::string ckpt = tmpPath("old.ckpt");
    snapshot::options().out = ckpt;
    snapshot::options().testStopAt = 2; // VecAdd events all sit early
    EXPECT_THROW(runOnce("VecAdd", 1, 0.2), snapshot::Interrupted);

    // Stamp the header with the previous format version (the u32 after
    // the 8-byte magic): its kEngine layout predates the shared lane.
    std::string image = slurp(ckpt);
    ASSERT_GT(image.size(), 12u);
    const uint32_t old_version = serial::kFormatVersion - 1;
    std::memcpy(&image[8], &old_version, sizeof old_version);
    {
        std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
        out << image;
    }

    snapshot::resetForTest();
    snapshot::options().resume = ckpt;
    try {
        runOnce("VecAdd", 1, 0.2);
        FAIL() << "an old-format checkpoint was accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimError::Kind::Config);
        EXPECT_EQ(e.summary(), "corrupt or incompatible checkpoint");
    }
}

TEST_F(SnapshotTest, RequireCheckpointableRefusesTracing)
{
    TelemetryOptions topts;
    topts.traceOutPath = "trace.json";
    SystemConfig cfg = presets::multiGpu4x4();
    EXPECT_THROW(snapshot::requireCheckpointable(cfg, topts), SimError);
    topts = TelemetryOptions{};
    topts.obsHeatmap = true;
    EXPECT_THROW(snapshot::requireCheckpointable(cfg, topts), SimError);
    topts = TelemetryOptions{};
    cfg.hbmCapacityPerNode = 1 << 20;
    EXPECT_THROW(snapshot::requireCheckpointable(cfg, topts), SimError);
}

TEST_F(SnapshotTest, RunMainMapsInterruptedToExitCode)
{
    const int rc = snapshot::runMain([]() -> int {
        throw snapshot::Interrupted("x.ckpt", 123);
    });
    EXPECT_EQ(rc, snapshot::kExitCheckpointed);
}

TEST_F(SnapshotTest, ParseArgsStripsFlags)
{
    const char *raw[] = {"prog", "--checkpoint-every", "5000",
                         "--checkpoint-out=a.ckpt", "--resume", "b.ckpt",
                         "--keep-me", nullptr};
    char *argv[8];
    for (int i = 0; i < 7; ++i)
        argv[i] = const_cast<char *>(raw[i]);
    argv[7] = nullptr;
    int argc = 7;
    snapshot::parseArgs(argc, argv);
    EXPECT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "--keep-me");
    EXPECT_EQ(snapshot::options().every, 5000u);
    EXPECT_EQ(snapshot::options().out, "a.ckpt");
    EXPECT_EQ(snapshot::options().resume, "b.ckpt");
}

// --- atomic sinks ----------------------------------------------------------

TEST_F(SnapshotTest, AtomicSinkParsesAfterSimulatedTornWrite)
{
    const std::string sink = tmpPath("stats.json");

    // Simulate a previous process killed mid-write: a torn temp file
    // next to the destination. Publication must ignore it and the
    // final document must parse.
    {
        std::ofstream torn(sink + ".tmp.99999");
        torn << "{\"schema\": \"ladm-stats-v1\", \"runs\": [{\"trunc";
    }

    TelemetryOptions topts;
    topts.statsJsonPath = sink;
    telemetry::session().configure(topts);
    (void)runOnce("VecAdd", 1, 0.1);
    telemetry::session().finalize();

    telemetry::JsonValue doc;
    std::string err;
    ASSERT_TRUE(telemetry::parseJson(slurp(sink), doc, &err)) << err;
    EXPECT_EQ(doc.get("generator").asString(), "ladm");
    EXPECT_EQ(doc.get("runs").items().size(), 1u);
}

TEST_F(SnapshotTest, AtomicWriteReplacesNotAppends)
{
    const std::string path = tmpPath("atomic.txt");
    ASSERT_TRUE(atomicWriteBytes(path, "first version, long content\n"));
    ASSERT_TRUE(atomicWriteBytes(path, "second\n"));
    EXPECT_EQ(slurp(path), "second\n");
}

// --- PDES fallback diagnostic ----------------------------------------------

TEST_F(SnapshotTest, PdesFallbackDiagnosticForFaultedShardedConfig)
{
    // --shards 4 plus fault injection: the engine must fall back to the
    // serial loop AND say so -- via the accessor, the published gauge,
    // and a human-readable detail naming the blocking feature.
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.shards = 4;
    cfg.faultSpec = "chiplet:5:fail@0";
    GpuSystem sys(cfg);
    ASSERT_EQ(sys.engineShards(), 4);
    sys.mem().pageTable().place(0, 1ull << 26, 0);

    LaunchDims dims;
    dims.grid = {32, 1};
    dims.block = {128, 1};
    KernelWideScheduler sched;
    TinyTrace trace;
    sys.runKernel(dims, trace, sched.assign(dims, cfg),
                  L2InsertPolicy::RTwice);

    EXPECT_EQ(sys.engine().pdesFallback(),
              KernelEngine::PdesFallback::MemoryIncompatible);
    EXPECT_NE(sys.engine().pdesFallbackDetail().find("fault"),
              std::string::npos);
    EXPECT_EQ(
        sys.registry().value("engine.pdes.fallback_reason").value_or(-1.0),
        3.0);
}

TEST_F(SnapshotTest, PdesNoFallbackPublishesNone)
{
    // A plain --shards 2 run with a trace instance per shard runs the
    // sharded loop, and both the accessor and the gauge say so.
    SystemConfig cfg = presets::multiGpu4x4();
    cfg.shards = 2;
    GpuSystem sys(cfg);
    ASSERT_EQ(sys.engineShards(), 2);
    sys.mem().pageTable().place(0, 1ull << 26, 0);

    LaunchDims dims;
    dims.grid = {32, 1};
    dims.block = {128, 1};
    KernelWideScheduler sched;
    TinyTrace trace, t1;
    const KernelRunStats ks =
        sys.runKernel(dims, trace, sched.assign(dims, cfg),
                      L2InsertPolicy::RTwice, true, {&t1});

    EXPECT_GT(ks.endCycle, ks.startCycle);
    EXPECT_EQ(sys.engine().pdesFallback(),
              KernelEngine::PdesFallback::None);
    EXPECT_EQ(
        sys.registry().value("engine.pdes.fallback_reason").value_or(-1.0),
        0.0);
}

// --- watchdog post-mortem --------------------------------------------------

/** Never retires, never touches memory: spins at one simulated cycle. */
class HangingTrace : public TraceSource
{
  public:
    bool
    warpStep(TbId, int, int64_t, std::vector<MemAccess> &) override
    {
        return true;
    }
};

TEST_F(SnapshotTest, WatchdogDumpsReplayableCheckpoint)
{
    check::ScopedEnable on;
    const uint64_t saved = check::watchdogLimit();
    check::setWatchdogLimit(10'000);

    // Once on the serial loop, once on the sharded one (whose stuck
    // lane stops itself and leaves the dump to the window barrier).
    for (const int shards : {1, 4}) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        snapshot::resetForTest();
        const std::string ckpt = tmpPath("hung.ckpt");
        std::remove((ckpt + ".postmortem").c_str());
        snapshot::options().out = ckpt;
        snapshot::options().every = 1u << 30; // armed, but never periodic

        SystemConfig cfg = shards == 1 ? presets::monolithic256()
                                       : presets::multiGpu4x4();
        cfg.shards = shards;
        cfg.computeGapCycles = 0;
        auto chk = snapshot::makeRunCheckpointer(cfg);
        ASSERT_NE(chk, nullptr);

        GpuSystem sys(cfg);
        ASSERT_EQ(sys.engineShards(), shards);
        sys.attachCheckpointer(chk.get());
        sys.mem().pageTable().place(0, 1ull << 30, 0);
        HangingTrace trace, t1, t2, t3;
        std::vector<TraceSource *> shard_traces;
        if (shards > 1)
            shard_traces = {&t1, &t2, &t3};
        LaunchDims dims;
        dims.grid = {shards == 1 ? 1 : 16, 1};
        dims.block = {32, 1};
        KernelWideScheduler sched;
        EXPECT_THROW(sys.runKernel(dims, trace, sched.assign(dims, cfg),
                                   L2InsertPolicy::RTwice, true,
                                   shard_traces),
                     InvariantViolation);

        // The hang left a complete, valid checkpoint behind for offline
        // replay with --resume <path>.postmortem --check.
        const std::string pm = slurp(ckpt + ".postmortem");
        ASSERT_FALSE(pm.empty());
        serial::Reader r(pm);
        EXPECT_TRUE(r.hasSection(snapshot::kMeta));
        EXPECT_TRUE(r.hasSection(snapshot::kEngine));
    }
    check::setWatchdogLimit(saved);
}

// --- resumable sweep journal ------------------------------------------------

TEST_F(SnapshotTest, SweepJournalReplaysCompletedCells)
{
    const std::string jnl = tmpPath("sweep.jnl");
    std::remove(jnl.c_str());

    std::vector<core::SweepCell> cells;
    {
        core::SweepCell c;
        c.workload = "VecAdd";
        c.policy = Policy::Ladm;
        c.cfg = presets::multiGpu4x4();
        c.scale = 0.1;
        cells.push_back(c);
        c.policy = Policy::Coda;
        cells.push_back(c);
    }

    core::setSweepJournalPath(jnl);
    const auto first = core::runSweep(cells, 1);
    ASSERT_EQ(first.size(), 2u);

    // Re-running the same grid replays both cells from the journal,
    // byte-identically.
    core::setSweepJournalPath(jnl);
    const auto second = core::runSweep(cells, 1);
    ASSERT_EQ(second.size(), 2u);
    EXPECT_EQ(csvRow(first[0]), csvRow(second[0]));
    EXPECT_EQ(csvRow(first[1]), csvRow(second[1]));

    core::SweepJournal replay(jnl);
    EXPECT_EQ(replay.completedReplayed(), 2u);
    EXPECT_EQ(replay.inFlightReplayed(), 0u);
    core::setSweepJournalPath("");
}

TEST_F(SnapshotTest, SweepJournalRequeuesInFlightAndTornLines)
{
    const std::string jnl = tmpPath("sweep_torn.jnl");
    std::remove(jnl.c_str());

    core::SweepCell c;
    c.workload = "VecAdd";
    c.policy = Policy::Ladm;
    c.cfg = presets::multiGpu4x4();
    c.scale = 0.1;

    // A journal from a killed sweep: cell 0 completed, cell 1 started
    // but never finished, and the kill tore the final line.
    {
        core::SweepJournal j(jnl);
        j.noteDone(core::cellKey(c, 0), RunMetrics{});
        j.noteStart(core::cellKey(c, 1));
    }
    {
        std::ofstream out(jnl, std::ios::app);
        out << "done 0abc"; // torn: odd hex, no newline
    }

    core::SweepJournal replay(jnl);
    EXPECT_EQ(replay.completedReplayed(), 1u);
    EXPECT_EQ(replay.inFlightReplayed(), 1u);
    EXPECT_NE(replay.completed(core::cellKey(c, 0)), nullptr);
    EXPECT_EQ(replay.completed(core::cellKey(c, 1)), nullptr);
}

// --- golden pins ------------------------------------------------------------
//
// Values computed on the serializer before it moved to one io() per
// component: the checkpoint bytes, the config fingerprints (checkpoint
// refusal and the serve decision-cache keys hash them) and the sweep
// journal's metrics blob must not move.

/** FNV-1a 64 over @p s. */
uint64_t
fnv64(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

class CheckpointGolden : public SnapshotTest
{
  protected:
    /**
     * The whole image of the checkpoint a single-launch PageRank run
     * flushes when stopped mid-kernel at cycle 3000.
     */
    std::string
    midKernelImage(int shards)
    {
        const std::string ckpt = tmpPath("golden.ckpt");
        snapshot::options().out = ckpt;
        snapshot::options().testStopAt = 3000;
        EXPECT_THROW(runOnce("PageRank", shards, 0.1),
                     snapshot::Interrupted);
        return slurp(ckpt);
    }
};

TEST_F(CheckpointGolden, SerialImageWithTimeline)
{
    TelemetryOptions topts;
    topts.timelineOutPath = tmpPath("golden.timeline.json");
    topts.timelineWindowCycles = 500;
    telemetry::session().configure(topts);
    const std::string image = midKernelImage(1);
    serial::Reader r(image);
    EXPECT_TRUE(r.hasSection(snapshot::kTimeline));
    EXPECT_EQ(image.size(), 6937419u);
    EXPECT_EQ(fnv64(image), 10753511050914165506ull);
}

TEST_F(CheckpointGolden, ShardedImage)
{
    // Only a first-kernel image is pinned: the engine image carries the
    // PDES barrier-wait gauge (host wall-clock ns), which is added to at
    // kernel end. Before the first kernel finishes it is all zero; a
    // multi-launch sharded image taken in a later kernel holds real
    // time and differs run to run.
    const std::string image = midKernelImage(4);
    serial::Reader r(image);
    EXPECT_FALSE(r.hasSection(snapshot::kTimeline));
    EXPECT_EQ(image.size(), 7081108u);
    EXPECT_EQ(fnv64(image), 10763062436685555340ull);
}

TEST_F(CheckpointGolden, ConfigFingerprintPerPreset)
{
    SystemConfig faulted = presets::multiGpu4x4();
    faulted.faultSpec = "chiplet:5:fail@0";
    faulted.shards = 4;
    const struct
    {
        const char *name;
        SystemConfig cfg;
        uint64_t fingerprint;
    } cases[] = {
        {"multiGpu4x4", presets::multiGpu4x4(), 18244481288635124092ull},
        {"monolithic256", presets::monolithic256(), 3020888305915278495ull},
        {"multiGpuFlat(4, 180)", presets::multiGpuFlat(4, 180.0),
         3559535742203692491ull},
        {"mcmRing(4, 1400)", presets::mcmRing(4, 1400.0),
         1537000169407917731ull},
        {"dgx4", presets::dgx4(), 18161452932699644167ull},
        {"multiGpu4x4 faulted, shards 4", faulted, 2367161648345018035ull},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        EXPECT_EQ(snapshot::configFingerprint(c.cfg), c.fingerprint);
    }
}

/** A RunMetrics with every field away from its default. */
RunMetrics
fullMetrics()
{
    RunMetrics m;
    m.workload = "PageRank";
    m.policy = "LADM";
    m.system = "multi-gpu-4x4";
    m.scheduler = "lasp";
    m.insertPolicy = L2InsertPolicy::ROnce;
    m.cycles = 123456789;
    m.tbCount = 1936;
    m.warpSteps = 987654;
    m.sectorAccesses = 4567890;
    m.warpInstrs = 1.25e7;
    m.fetchLocal = 1111;
    m.fetchRemote = 2222;
    m.nodeFetchLocal = {1, 2, 3, 1105};
    m.nodeFetchRemote = {4, 5, 6, 2207};
    m.offChipPct = 66.67;
    m.interNodeBytes = 3333;
    m.interGpuBytes = 4444;
    m.l1HitRate = 0.125;
    m.l2HitRate = 0.55;
    m.l2Mpki = 7.5;
    m.uvmFaults = 55;
    for (size_t i = 0; i < m.classAccesses.size(); ++i) {
        m.classAccesses[i] = 100 + i;
        m.classHitRate[i] = 0.1 * static_cast<double>(i + 1);
    }
    m.rehomedPages = 6;
    m.failedNodeAccesses = 77;
    m.hasLatency = true;
    for (size_t i = 0; i < m.latency.size(); ++i) {
        const double d = static_cast<double>(i);
        m.latency[i] = {1000 + i, 10.5 + d, 9.0 + d, 40.0 + d, 80.25 + d,
                        200 + i};
    }
    m.error = "run failed: injected";
    return m;
}

TEST_F(CheckpointGolden, SweepJournalDoneLine)
{
    const std::string jnl = tmpPath("golden.jnl");
    std::remove(jnl.c_str());
    const RunMetrics m = fullMetrics();
    {
        core::SweepJournal j(jnl);
        j.noteDone("cell", m);
    }
    std::istringstream in(slurp(jnl));
    std::string line, done;
    while (std::getline(in, line))
        if (line.rfind("done ", 0) == 0)
            done = line;
    EXPECT_EQ(done.size(), 1748u);
    EXPECT_EQ(fnv64(done), 6859820206537123552ull);

    core::SweepJournal replay(jnl);
    const RunMetrics *got = replay.completed("cell");
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->workload, m.workload);
    EXPECT_EQ(got->policy, m.policy);
    EXPECT_EQ(got->system, m.system);
    EXPECT_EQ(got->scheduler, m.scheduler);
    EXPECT_EQ(got->insertPolicy, m.insertPolicy);
    EXPECT_EQ(got->cycles, m.cycles);
    EXPECT_EQ(got->tbCount, m.tbCount);
    EXPECT_EQ(got->warpSteps, m.warpSteps);
    EXPECT_EQ(got->sectorAccesses, m.sectorAccesses);
    EXPECT_EQ(got->warpInstrs, m.warpInstrs);
    EXPECT_EQ(got->fetchLocal, m.fetchLocal);
    EXPECT_EQ(got->fetchRemote, m.fetchRemote);
    EXPECT_EQ(got->nodeFetchLocal, m.nodeFetchLocal);
    EXPECT_EQ(got->nodeFetchRemote, m.nodeFetchRemote);
    EXPECT_EQ(got->offChipPct, m.offChipPct);
    EXPECT_EQ(got->interNodeBytes, m.interNodeBytes);
    EXPECT_EQ(got->interGpuBytes, m.interGpuBytes);
    EXPECT_EQ(got->l1HitRate, m.l1HitRate);
    EXPECT_EQ(got->l2HitRate, m.l2HitRate);
    EXPECT_EQ(got->l2Mpki, m.l2Mpki);
    EXPECT_EQ(got->uvmFaults, m.uvmFaults);
    EXPECT_EQ(got->classAccesses, m.classAccesses);
    EXPECT_EQ(got->classHitRate, m.classHitRate);
    EXPECT_EQ(got->rehomedPages, m.rehomedPages);
    EXPECT_EQ(got->failedNodeAccesses, m.failedNodeAccesses);
    EXPECT_EQ(got->hasLatency, m.hasLatency);
    for (size_t i = 0; i < m.latency.size(); ++i) {
        SCOPED_TRACE("latency component " + std::to_string(i));
        EXPECT_EQ(got->latency[i].samples, m.latency[i].samples);
        EXPECT_EQ(got->latency[i].mean, m.latency[i].mean);
        EXPECT_EQ(got->latency[i].p50, m.latency[i].p50);
        EXPECT_EQ(got->latency[i].p95, m.latency[i].p95);
        EXPECT_EQ(got->latency[i].p99, m.latency[i].p99);
        EXPECT_EQ(got->latency[i].max, m.latency[i].max);
    }
    EXPECT_EQ(got->error, m.error);
    EXPECT_EQ(csvRow(*got), csvRow(m));
}

} // namespace
} // namespace ladm
