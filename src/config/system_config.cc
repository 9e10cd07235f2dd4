#include "config/system_config.hh"

#include <cstdlib>
#include <cstring>

#include "check/fault_plan.hh"
#include "common/bitutils.hh"
#include "common/logging.hh"

namespace ladm
{

namespace
{

void
envString(const char *var, std::string &out)
{
    if (const char *v = std::getenv(var))
        out = v;
}

void
envU64(const char *var, uint64_t &out)
{
    if (const char *v = std::getenv(var)) {
        char *end = nullptr;
        const unsigned long long parsed = std::strtoull(v, &end, 10);
        if (end == v || *end != '\0')
            ladm_fatal(var, ": expected a non-negative integer, got '", v,
                       "'");
        out = parsed;
    }
}

void
envBool(const char *var, bool &out)
{
    if (const char *v = std::getenv(var)) {
        out = !(std::strcmp(v, "") == 0 || std::strcmp(v, "0") == 0 ||
                std::strcmp(v, "false") == 0 || std::strcmp(v, "off") == 0);
    }
}

} // namespace

TelemetryOptions
TelemetryOptions::fromEnv()
{
    TelemetryOptions o;
    envString("LADM_STATS_JSON", o.statsJsonPath);
    envString("LADM_STATS_CSV", o.statsCsvPath);
    envString("LADM_STATS_TEXT", o.statsTextPath);
    envString("LADM_TRACE_OUT", o.traceOutPath);
    uint64_t sample = o.traceSampleEvery;
    envU64("LADM_TRACE_SAMPLE", sample);
    o.traceSampleEvery = static_cast<uint32_t>(sample ? sample : 1);
    envU64("LADM_TRACE_MAX_EVENTS", o.traceMaxEvents);

    envString("LADM_TIMELINE_OUT", o.timelineOutPath);
    uint64_t window = o.timelineWindowCycles;
    envU64("LADM_TIMELINE_WINDOW", window);
    o.timelineWindowCycles = window ? window : 1;
    uint64_t max_windows = o.timelineMaxWindows;
    envU64("LADM_TIMELINE_MAX_WINDOWS", max_windows);
    o.timelineMaxWindows =
        static_cast<uint32_t>(max_windows >= 2 ? max_windows : 2);
    envString("LADM_TIMELINE_PATHS", o.timelinePaths);
    envBool("LADM_OBS_ATTRIBUTION", o.obsAttribution);
    envBool("LADM_OBS_HEATMAP", o.obsHeatmap);
    uint64_t hot = o.obsHotPages;
    envU64("LADM_OBS_HOT_PAGES", hot);
    o.obsHotPages = static_cast<uint32_t>(hot);
    return o;
}

TelemetryOptions
TelemetryOptions::parseArgs(int &argc, char **argv)
{
    TelemetryOptions o = fromEnv();

    // Match "--flag value" and "--flag=value"; consume matched arguments
    // by compacting argv in place.
    auto match = [&](int &i, const char *flag,
                     std::string &out) -> bool {
        const size_t len = std::strlen(flag);
        if (std::strncmp(argv[i], flag, len) != 0)
            return false;
        if (argv[i][len] == '=') {
            out = argv[i] + len + 1;
            return true;
        }
        if (argv[i][len] != '\0')
            return false;
        if (i + 1 >= argc)
            ladm_fatal(flag, " expects a value");
        out = argv[++i];
        return true;
    };

    int w = 1;
    for (int i = 1; i < argc; ++i) {
        std::string val;
        if (match(i, "--stats-json", o.statsJsonPath) ||
            match(i, "--stats-csv", o.statsCsvPath) ||
            match(i, "--stats-text", o.statsTextPath) ||
            match(i, "--trace-out", o.traceOutPath)) {
            continue;
        }
        if (match(i, "--trace-sample", val)) {
            const long long n = std::atoll(val.c_str());
            if (n < 1)
                ladm_fatal("--trace-sample expects an integer >= 1");
            o.traceSampleEvery = static_cast<uint32_t>(n);
            continue;
        }
        if (match(i, "--trace-max-events", val)) {
            const long long n = std::atoll(val.c_str());
            if (n < 1)
                ladm_fatal("--trace-max-events expects an integer >= 1");
            o.traceMaxEvents = static_cast<uint64_t>(n);
            continue;
        }
        if (match(i, "--timeline-out", o.timelineOutPath) ||
            match(i, "--timeline-paths", o.timelinePaths)) {
            continue;
        }
        if (match(i, "--timeline-window", val)) {
            const long long n = std::atoll(val.c_str());
            if (n < 1)
                ladm_fatal("--timeline-window expects an integer >= 1");
            o.timelineWindowCycles = static_cast<uint64_t>(n);
            continue;
        }
        if (match(i, "--timeline-max-windows", val)) {
            const long long n = std::atoll(val.c_str());
            if (n < 2)
                ladm_fatal("--timeline-max-windows expects an integer >= 2");
            o.timelineMaxWindows = static_cast<uint32_t>(n);
            continue;
        }
        if (match(i, "--obs-hot-pages", val)) {
            const long long n = std::atoll(val.c_str());
            if (n < 1)
                ladm_fatal("--obs-hot-pages expects an integer >= 1");
            o.obsHotPages = static_cast<uint32_t>(n);
            continue;
        }
        if (std::strcmp(argv[i], "--obs-attribution") == 0) {
            o.obsAttribution = true;
            continue;
        }
        if (std::strcmp(argv[i], "--obs-heatmap") == 0) {
            o.obsHeatmap = true;
            continue;
        }
        argv[w++] = argv[i];
    }
    argc = w;
    argv[argc] = nullptr;
    return o;
}

int
SystemConfig::resolvedShards() const
{
    uint64_t n = shards > 0 ? static_cast<uint64_t>(shards) : 0;
    if (shards == 0)
        envU64("LADM_SHARDS", n);
    if (n < 1)
        return 1;
    const uint64_t cap = static_cast<uint64_t>(numNodes());
    return static_cast<int>(n < cap ? n : cap);
}

std::vector<Diagnostic>
SystemConfig::validateCollect() const
{
    std::vector<Diagnostic> diags;
    auto bad = [&](const char *field, const std::string &value,
                   const std::string &constraint, const std::string &hint) {
        diags.push_back({std::string("system.") + field, value, constraint,
                         hint});
    };
    auto positiveCount = [&](const char *field, int v,
                             const char *what) {
        if (v < 1) {
            bad(field, std::to_string(v), "must be >= 1",
                std::string("a machine needs at least one ") + what);
        }
    };
    auto positiveBw = [&](const char *field, double v) {
        if (v <= 0.0) {
            bad(field, std::to_string(v),
                "bandwidth must be > 0 GB/s",
                "zero or negative bandwidth makes transfer time "
                "undefined; pick a positive figure");
        }
    };

    positiveCount("numGpus", numGpus, "GPU");
    positiveCount("chipletsPerGpu", chipletsPerGpu, "chiplet per GPU");
    positiveCount("smsPerChiplet", smsPerChiplet, "SM per chiplet");
    positiveCount("dramChannelsPerChiplet", dramChannelsPerChiplet,
                  "HBM pseudo-channel");

    if (numGpus >= 1 && chipletsPerGpu >= 1 && smsPerChiplet >= 1) {
        if (topology == Topology::Monolithic && numNodes() != 1) {
            bad("topology", "Monolithic",
                "monolithic topology requires exactly one node, got " +
                    std::to_string(numNodes()),
                "set numGpus = chipletsPerGpu = 1 (fold the SMs into "
                "smsPerChiplet) or pick a NUMA topology");
        }
        if (topology == Topology::Hierarchical && chipletsPerGpu < 2) {
            bad("topology", "Hierarchical",
                "hierarchical topology needs >= 2 chiplets per GPU for "
                "the package ring",
                "raise chipletsPerGpu, or use Crossbar for flat "
                "multi-GPU machines");
        }
        if (topology == Topology::Ring && numNodes() < 2) {
            bad("topology", "Ring", "a ring needs >= 2 nodes",
                "raise numGpus or chipletsPerGpu, or use Monolithic");
        }
    }

    if (!isPowerOfTwo(pageSize) || pageSize < kLineSize) {
        bad("pageSize", std::to_string(pageSize),
            "interleave granularity must be a power of two >= the " +
                std::to_string(kLineSize) + "-byte line",
            "use 4096 (or another power of two)");
    }
    if (l1Assoc < 1 || l2Assoc < 1) {
        bad("l1Assoc/l2Assoc",
            std::to_string(l1Assoc) + "/" + std::to_string(l2Assoc),
            "cache associativity must be >= 1", "use a direct-mapped (1) "
            "or set-associative (>1) figure");
    }
    if (l2Assoc >= 1 &&
        l2SizePerChiplet % (static_cast<Bytes>(l2Assoc) * kLineSize) !=
            0) {
        bad("l2SizePerChiplet", std::to_string(l2SizePerChiplet),
            "L2 size must divide evenly into assoc * line sets",
            "make it a multiple of l2Assoc * " +
                std::to_string(kLineSize));
    }
    if (clockGhz <= 0.0) {
        bad("clockGhz", std::to_string(clockGhz), "clock must be > 0",
            "set the core clock in GHz, e.g. 1.4");
    }
    positiveBw("memBwPerChipletGBs", memBwPerChipletGBs);
    positiveBw("intraChipletXbarGBs", intraChipletXbarGBs);
    positiveBw("interChipletRingGBs", interChipletRingGBs);
    positiveBw("interGpuLinkGBs", interGpuLinkGBs);
    positiveBw("monolithicXbarGBs", monolithicXbarGBs);
    if (hbmCapacityPerNode > 0)
        positiveBw("hostLinkGBs", hostLinkGBs);
    if (warpSize < 1 || warpSlotsPerSm < 1 || maxResidentTbsPerSm < 1) {
        bad("warpSize/warpSlotsPerSm/maxResidentTbsPerSm",
            std::to_string(warpSize) + "/" +
                std::to_string(warpSlotsPerSm) + "/" +
                std::to_string(maxResidentTbsPerSm),
            "warp and residency parameters must be >= 1",
            "typical values: warpSize 32, warpSlotsPerSm 64, "
            "maxResidentTbsPerSm 16");
    }
    if (warpPipelineDepth < 1) {
        bad("warpPipelineDepth", std::to_string(warpPipelineDepth),
            "pipeline depth must be >= 1 (1 = fully blocking)",
            "use 1-4");
    }
    if (shards < 0) {
        bad("shards", std::to_string(shards),
            "shard count must be >= 0 (0 = resolve from LADM_SHARDS)",
            "use 1 for the serial reference or 2+ for the PDES engine");
    }

    if (!faultSpec.empty()) {
        try {
            const check::FaultPlan plan = check::FaultPlan::parse(
                faultSpec);
            for (Diagnostic &d : plan.validateAgainst(*this))
                diags.push_back(std::move(d));
        } catch (const SimError &e) {
            for (const Diagnostic &d : e.diagnostics())
                diags.push_back(d);
        }
    }
    return diags;
}

void
SystemConfig::validate() const
{
    std::vector<Diagnostic> diags = validateCollect();
    if (!diags.empty()) {
        throw SimError(SimError::Kind::Config,
                       "system '" + name + "' failed validation",
                       std::move(diags));
    }
}

} // namespace ladm
