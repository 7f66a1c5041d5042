/**
 * @file
 * Shared declarations of the campaign benchmark: workload table,
 * metric sink, the per-run tallies the traced campaigns collect, and
 * the entry points of the in-process, fleet and replay code.
 *
 * The benchmark drives the libraries only through their public API:
 * every per-layer number is the benchmark's own timing around a public
 * call, never a span or counter inside the libraries.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/infer.h"
#include "core/pmm.h"
#include "fleet/coordinator.h"
#include "fuzz/campaign.h"
#include "kernel/kernel.h"

namespace perfbench {

using namespace sp;
using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Host speed. On a shared host the same work runs up to twice as
 * slowly for seconds at a time. The benchmark times a fixed reference
 * job, which runs no library code, before and after every set-up and
 * in-process campaign, and divides their times by the host's slowdown
 * then (see README.md). A change to the libraries moves the campaign,
 * never the reference job.
 */
constexpr double kReferenceIdleS = 0.010;

/** Runs the reference job once; returns its time over its time on an
 *  idle 4-CPU x86-64 host (kReferenceIdleS). */
double hostSlowdown();

/** Which library entry point a workload drives. */
enum class Kind { Syzkaller, SnowplowAsync, Fleet };

/** One benchmark workload (see README.md for why each exists). */
struct Workload
{
    std::string name;
    Kind kind = Kind::Syzkaller;
    /** Campaign workers (fleet: nodes, each with one worker). */
    size_t workers = 1;
    /** InferenceService threads (SnowplowAsync only). */
    size_t infer_threads = 0;
    /** Attach obs::CovMap + obs::TimelineRecorder with artifacts. */
    bool observed = false;
    /** Executions per campaign (closed loop up to this budget). */
    uint64_t budget = 0;
    /** Edge target of time_to_edges_s, on the steep early curve. */
    size_t edge_target = 0;
    /** Set-up repetitions before the campaigns; setup_s is the median
     *  of their host-normalised times. */
    size_t setup_reps = 3;
    /** Nominal seconds of one campaign on an idle 4-CPU host: a run
     *  makes floor(--seconds / campaign_s) campaigns, at least two, so
     *  the plan depends on --seconds alone, never on how fast the
     *  build runs. */
    double campaign_s = 1.0;
};

/** Looks up a workload by name; null when unknown. `tiny` shrinks
 *  budgets and repetitions for the self-test. */
const Workload *findWorkload(const std::string &name, bool tiny);

/** Ordered metric sink printed as a table and as the final JSON. */
class Metrics
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);

    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

/** Pass/fail tally of the correctness gate. Every operation (campaign
 *  or lease) and every run-level check is one attempt. */
struct Gate
{
    uint64_t attempted = 0;
    uint64_t failed = 0;

    /** Records one attempt; prints `what` to stderr when it failed. */
    void check(bool ok, const std::string &what);

    /** Records `ops` operations of which `bad` failed. */
    void count(uint64_t ops, uint64_t bad, const std::string &what);
};

/** Median of `v` (0 when empty). */
double median(std::vector<double> v);

/** Seed of campaign `index` of a run started with `run_seed`. */
uint64_t campaignSeed(uint64_t run_seed, size_t index);

/** The CLI's default kernel: buildBaseKernel({2024, "6.8", 0}). */
kern::Kernel buildDefaultKernel();

/** Collect the set-up dataset and train the PMM, both from fixed
 *  seeds; stores the tuned decision threshold in `threshold`. */
std::unique_ptr<core::Pmm> trainSetupModel(const kern::Kernel &kernel,
                                           float *threshold);

/** Everything set-up produced and timed. */
struct Setup
{
    std::unique_ptr<kern::Kernel> kernel;
    /** Trained PMM (SnowplowAsync only) and its tuned threshold. */
    std::unique_ptr<core::Pmm> model;
    float threshold = 0.5f;
    /** One per repetition, host-normalised (see hostSlowdown). */
    std::vector<double> setup_s;
    std::vector<double> kernel_ms;   ///< one per repetition
    std::vector<double> train_s;     ///< one per repetition
};

/** Run the workload's set-up `setup_reps` times (see README.md). */
Setup runSetup(const Workload &w, Gate &gate);

/** Localize-stage tallies gathered by the timing decorator. */
struct LocalizeTally
{
    uint64_t calls[mut::kLocalizerChannels] = {};
    uint64_t ns[mut::kLocalizerChannels] = {};

    void add(const LocalizeTally &other);
};

/** What one campaign (in-process or fleet) measured. */
struct CampaignResult
{
    uint64_t seed = 0;
    double wall_s = 0.0;
    /** Mean hostSlowdown() just before and just after the campaign;
     *  1 for the fleet, whose timings stay raw. */
    double slowdown = 1.0;
    /** Seconds until coverage reached the workload's edge target;
     *  a campaign that never reaches it fails the gate. */
    double time_to_edges_s = 0.0;
    size_t final_edges = 0;
    size_t unique_crashes = 0;
    uint64_t execs = 0;

    /** @name In-process (tallies of the localizer, service and cache
     *  only on traced campaigns) */
    /** @{ */
    LocalizeTally localize;
    fuzz::FuzzReport report;
    uint64_t graph_queries = 0;      ///< async inference submissions
    core::InferenceStats infer;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_evictions = 0;
    uint64_t artifact_bytes = 0;
    uint64_t checkpoints = 0;
    /** @} */

    /** @name Fleet only */
    /** @{ */
    uint64_t leases = 0;
    uint64_t bytes_wire = 0;
    uint64_t node_execs = 0;
    double node_wall_s = 0.0;
    uint64_t programs_pushed = 0;
    uint64_t programs_deduped = 0;
    /** @} */
};

/**
 * An in-process campaign kept alive after run() so checks and replays
 * can read its final corpus. Members are declared so the engine dies
 * before the inference service its localizers point at.
 */
class InProcessCampaign
{
  public:
    InProcessCampaign(const Workload &w, const Setup &setup,
                      uint64_t seed, bool traced,
                      const std::string &out_dir);
    ~InProcessCampaign();

    InProcessCampaign(const InProcessCampaign &) = delete;
    InProcessCampaign &operator=(const InProcessCampaign &) = delete;

    /** Run to budget; checks its own invariants into `gate`. */
    CampaignResult run(Gate &gate);

    const fuzz::CampaignEngine &engine() const { return *engine_; }
    const fuzz::FuzzOptions &options() const { return opts_.fuzz; }

  private:
    struct State;
    const Workload &w_;
    bool traced_;
    fuzz::CampaignOptions opts_;
    std::unique_ptr<State> state_;
    std::unique_ptr<fuzz::CampaignEngine> engine_;
};

/** Options of the workload's in-process campaign for `seed`. */
fuzz::CampaignOptions campaignOptions(const Workload &w, uint64_t seed);

/** One fleet drain (coordinator + nodes over loopback). */
CampaignResult runFleetCampaign(const Workload &w, const Setup &setup,
                                uint64_t seed, const std::string &out_dir,
                                Gate &gate);

/** Coordinator options of the fleet workload's drain for `seed`. */
fleet::CoordinatorOptions fleetOptions(const Workload &w, uint64_t seed);

/**
 * Run-level checks over one finished campaign's corpus: backend
 * parity on a sample and the text round trip of every program.
 */
void checkCorpus(const kern::Kernel &kernel,
                 const fuzz::CampaignEngine &engine, uint64_t seed,
                 Gate &gate);

/**
 * The per-layer metrics of a traced run: in-run tallies of the traced
 * campaigns, replays of public calls over `corpus`'s final corpus, and
 * each replayed unit cost's estimated share of campaign wall time.
 * `untraced` holds the same seeds as `traced`, run without tracing.
 * A replay whose output fails to decode fails `gate`.
 */
void perLayerMetrics(const Workload &w, const Setup &setup,
                     const InProcessCampaign &corpus,
                     const std::vector<CampaignResult> &traced,
                     const std::vector<CampaignResult> &untraced,
                     Gate &gate, Metrics &out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
