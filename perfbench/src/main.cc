/**
 * @file
 * campaign_bench: runs whole fuzzing campaigns of one workload for a
 * fixed wall-clock window and prints every metric by name and unit,
 * then one JSON result line.
 *
 *   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--out-dir DIR] [--tiny]
 *
 * --trace 0 reports the end-to-end metrics from untraced campaigns;
 * --seconds sets how many campaigns run. --trace 1 runs each seed
 * untraced and then traced (the traced campaigns carry the benchmark's
 * localizer timing decorator), replays public calls over the final
 * corpus, and reports the per-layer metrics. --tiny shrinks budgets
 * for the self-test.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"

namespace perfbench {
namespace {

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::string out_dir = ".bench_build/perfbench-out";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "campaign_bench: %s\nusage: campaign_bench --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--tiny]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            a.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else if (flag == "--out-dir") {
            a.out_dir = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + flag).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Peak resident set of this process (VmHWM), MiB. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    double load[3] = {0.0, 0.0, 0.0};
    in >> load[0] >> load[1] >> load[2];
    char buf[96];
    std::snprintf(buf, sizeof buf, "[%.2f,%.2f,%.2f]", load[0], load[1],
                  load[2]);
    return buf;
}

/** Host and build context printed with every result. */
void
printContext(const Args &a)
{
    std::printf(
        "{\"perfbench_context\":{\"workload\":\"%s\",\"seed\":%llu,"
        "\"seconds\":%s,\"trace\":%d,\"tiny\":%s,\"nproc\":%u,"
        "\"compiler\":\"gcc-compatible %s\",\"build_type\":\"%s\",\"optimized\":true,"
        "\"loadavg\":%s}}\n",
        a.workload.c_str(), static_cast<unsigned long long>(a.seed),
        jsonNumber(a.seconds).c_str(), a.trace ? 1 : 0,
        a.tiny ? "true" : "false", std::thread::hardware_concurrency(),
        __VERSION__, PERFBENCH_BUILD_TYPE, loadAverage().c_str());
}

void
printResult(const Gate &gate, const Metrics &metrics)
{
    for (const auto &m : metrics.entries()) {
        std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    const double failed_frac =
        gate.attempted == 0 ? 0.0
                            : static_cast<double>(gate.failed) /
                                  static_cast<double>(gate.attempted);
    std::printf("  %-28s %18.6f %s   (%llu of %llu operations)\n",
                "failed_frac", failed_frac, "frac",
                static_cast<unsigned long long>(gate.failed),
                static_cast<unsigned long long>(gate.attempted));

    std::ostringstream json;
    json << "{\"correct\": " << (gate.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << gate.attempted
         << ", \"failed\": " << gate.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &m : metrics.entries()) {
        json << (first ? "" : ", ") << "\"" << m.name
             << "\": {\"value\": " << jsonNumber(m.value)
             << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

/** A one-worker Syzkaller-mode loop is bit-reproducible: rerun a
 *  campaign's seed and compare timeline, edges and crashes. */
void
checkReproducible(const Workload &w, const Setup &setup,
                  const CampaignResult &first, Gate &gate)
{
    InProcessCampaign again(w, setup, first.seed, false, "");
    Gate scratch;
    const CampaignResult r = again.run(scratch);
    bool same = r.final_edges == first.final_edges &&
                r.unique_crashes == first.unique_crashes &&
                r.report.timeline.size() == first.report.timeline.size();
    for (size_t i = 0; same && i < r.report.timeline.size(); ++i) {
        const auto &a = r.report.timeline[i];
        const auto &b = first.report.timeline[i];
        same = a.execs == b.execs && a.edges == b.edges &&
               a.blocks == b.blocks && a.crashes == b.crashes;
    }
    gate.check(same, w.name + " seed " + std::to_string(first.seed) +
                         ": rerun reproduces timeline, edges, crashes");
}

int
run(const Args &a)
{
    const Workload *wp = findWorkload(a.workload, a.tiny);
    if (wp == nullptr)
        usage(("unknown workload " + a.workload).c_str());
    const Workload &w = *wp;
    std::error_code ec;
    std::filesystem::create_directories(a.out_dir, ec);
    if (ec) {
        std::fprintf(stderr, "campaign_bench: cannot create %s\n",
                     a.out_dir.c_str());
        return 2;
    }
    printContext(a);

    Gate gate;
    Setup setup = runSetup(w, gate);

    // A fixed plan of closed-loop campaigns: floor(--seconds /
    // campaign_s) of them, each on its own seed from --seed. The plan
    // follows --seconds alone, never the speed of the build, so every
    // build times the same campaigns. A traced run runs each of half as
    // many seeds twice, untraced and then traced.
    size_t planned = std::max<size_t>(
        2, static_cast<size_t>(a.seconds / w.campaign_s));
    if (a.trace)
        planned -= planned % 2;
    std::vector<CampaignResult> untraced;
    std::vector<CampaignResult> traced;
    std::unique_ptr<InProcessCampaign> last;
    // In-process timings are host-normalised. The fleet drain's time
    // does not track the reference job (dividing by it widened the
    // fleet's spread over runs about threefold), so it stays raw.
    const bool normalise = w.kind != Kind::Fleet;
    const auto window = Clock::now();
    double slow_before = normalise ? hostSlowdown() : 1.0;
    for (size_t i = 0; i < planned; ++i) {
        const bool trace_this = a.trace && i % 2 == 1;
        const uint64_t seed = campaignSeed(a.seed, a.trace ? i / 2 : i);
        CampaignResult r;
        if (w.kind == Kind::Fleet) {
            r = runFleetCampaign(w, setup, seed, a.out_dir, gate);
        } else {
            auto c = std::make_unique<InProcessCampaign>(
                w, setup, seed, trace_this, a.out_dir);
            r = c->run(gate);
            if (!a.trace || trace_this)
                last = std::move(c);
        }
        const double slow_after = normalise ? hostSlowdown() : 1.0;
        r.slowdown = 0.5 * (slow_before + slow_after);
        slow_before = slow_after;
        std::fprintf(stderr,
                     "campaign_bench: %s campaign %zu%s seed %llu: %.4f s "
                     "at host slowdown %.3f, %zu edges (target at %.4f s), "
                     "%zu crashes\n",
                     w.name.c_str(), i, trace_this ? " (traced)" : "",
                     static_cast<unsigned long long>(seed), r.wall_s,
                     r.slowdown, r.final_edges, r.time_to_edges_s,
                     r.unique_crashes);
        (trace_this ? traced : untraced).push_back(std::move(r));
    }
    const double window_s = secondsSince(window);

    if (w.kind == Kind::Syzkaller && w.workers == 1)
        checkReproducible(w, setup, untraced.front(), gate);
    // The fleet exposes no corpus; its corpus checks and replays run on
    // a one-worker in-process campaign of the same seed and a quarter
    // of the budget.
    Workload ref = w;
    if (w.kind == Kind::Fleet) {
        ref.kind = Kind::Syzkaller;
        ref.workers = 1;
        ref.budget = w.budget / 4;
        last = std::make_unique<InProcessCampaign>(
            ref, setup, untraced.front().seed, false, a.out_dir);
        last->run(gate);
    }
    checkCorpus(*setup.kernel, last->engine(), last->options().seed, gate);

    Metrics metrics;
    if (!a.trace) {
        double wall = 0.0, tte = 0.0, crashes = 0.0;
        std::vector<double> edges;
        for (const auto &r : untraced) {
            wall += r.wall_s / r.slowdown;
            tte += r.time_to_edges_s / r.slowdown;
            edges.push_back(static_cast<double>(r.final_edges));
            crashes += static_cast<double>(r.unique_crashes);
        }
        const double runs = static_cast<double>(untraced.size());
        metrics.add("execs_per_s",
                    static_cast<double>(w.budget) * runs / wall, "1/s");
        metrics.add("time_to_edges_s", tte / runs, "s");
        metrics.add("final_edges", median(edges), "count");
        metrics.add("unique_crashes", crashes / runs, "count");
        metrics.add("setup_s", median(setup.setup_s), "s");
        metrics.add("peak_rss_mb", peakRssMb(), "MiB");
    } else {
        perLayerMetrics(w, setup, *last, traced, untraced, gate, metrics);
    }
    std::fprintf(stderr,
                 "campaign_bench: %s: %zu campaigns in %.2f s, set-up "
                 "%zu x %.3f s\n",
                 w.name.c_str(), planned, window_s,
                 setup.setup_s.size(), median(setup.setup_s));
    last.reset();
    std::filesystem::remove(a.out_dir, ec);
    printResult(gate, metrics);
    return 0;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char **argv)
{
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    (void)argc;
    (void)argv;
    std::fprintf(stderr, "campaign_bench: refusing to record timings "
                         "from a non-optimised build\n");
    return 3;
#else
    const perfbench::Args args = perfbench::parseArgs(argc, argv);
    return perfbench::run(args);
#endif
}
