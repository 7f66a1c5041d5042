/**
 * @file
 * Workload table, set-up, and the in-process campaign runner with its
 * correctness checks.
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "core/dataset.h"
#include "core/snowplow.h"
#include "core/train.h"
#include "exec/executor.h"
#include "fleet/coordinator.h"
#include "kernel/subsystems.h"
#include "obs/covmap.h"
#include "obs/timeline.h"
#include "prog/serialize.h"

namespace perfbench {

namespace {

/**
 * The table. Budgets keep a campaign under about two seconds on a
 * 4-CPU host, so a 20 s run pools ten to fifty campaigns. Edge targets sit on the steep early part of the coverage
 * curve (every seed tried reaches them within the first 5-20k execs);
 * among the targets there, these gave the smallest run-to-run spread.
 */
std::vector<Workload>
table()
{
    std::vector<Workload> t;
    Workload w;

    w = Workload{};
    w.name = "syz-1w";
    w.kind = Kind::Syzkaller;
    w.workers = 1;
    w.budget = 50000;
    w.edge_target = 420;
    w.setup_reps = 9;
    w.campaign_s = 0.45;
    t.push_back(w);

    w = Workload{};
    w.name = "syz-4w-observed";
    w.kind = Kind::Syzkaller;
    w.workers = 4;
    w.observed = true;
    w.budget = 100000;
    w.edge_target = 380;
    w.setup_reps = 9;
    w.campaign_s = 0.5;
    t.push_back(w);

    w = Workload{};
    w.name = "snowplow-async";
    w.kind = Kind::SnowplowAsync;
    w.workers = 2;
    w.infer_threads = 2;
    w.budget = 100000;
    w.edge_target = 420;
    w.setup_reps = 3;
    w.campaign_s = 1.25;
    t.push_back(w);

    w = Workload{};
    w.name = "fleet-3n";
    w.kind = Kind::Fleet;
    w.workers = 3;
    w.budget = 200000;
    w.edge_target = 420;
    w.setup_reps = 9;
    w.campaign_s = 2.0;
    t.push_back(w);
    return t;
}

/** Dataset and training options of the set-up PMM (fixed seeds, so
 *  every set-up trains the same model). */
core::DatasetOptions
datasetOptions()
{
    core::DatasetOptions opts;
    opts.corpus_size = 30;
    opts.mutations_per_base = 40;
    opts.seed = 11;
    return opts;
}

core::TrainOptions
trainOptions()
{
    core::TrainOptions opts;
    opts.epochs = 2;
    opts.max_train_examples = 300;
    opts.seed = 77;
    return opts;
}

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

bool
sameParameters(const core::Pmm &a, const core::Pmm &b)
{
    const auto &pa = a.parameters();
    const auto &pb = b.parameters();
    if (pa.size() != pb.size())
        return false;
    for (size_t i = 0; i < pa.size(); ++i) {
        if (pa[i].tensor.data() != pb[i].tensor.data())
            return false;
    }
    return true;
}

/** Times every localizeChosen of the wrapped localizer by channel. */
class TimedLocalizer : public mut::Localizer
{
  public:
    TimedLocalizer(std::unique_ptr<mut::Localizer> inner,
                   LocalizeTally *tally)
        : inner_(std::move(inner)), tally_(tally)
    {
    }

    std::vector<mut::ArgLocation>
    localize(const prog::Prog &prog, Rng &rng, size_t max_sites) override
    {
        return inner_->localize(prog, rng, max_sites);
    }

    std::vector<mut::ArgLocation>
    localizeWithResult(const prog::Prog &prog,
                       const exec::ExecResult &result, Rng &rng,
                       size_t max_sites) override
    {
        return inner_->localizeWithResult(prog, result, rng, max_sites);
    }

    bool learned() const override { return inner_->learned(); }

    mut::Localization
    localizeChosen(const prog::Prog &prog, const exec::ExecResult &result,
                   Rng &rng, size_t max_sites, bool use_model) override
    {
        const auto start = Clock::now();
        auto loc = inner_->localizeChosen(prog, result, rng, max_sites,
                                          use_model);
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - start)
                            .count();
        const auto channel = static_cast<size_t>(loc.channel);
        ++tally_->calls[channel];
        tally_->ns[channel] += static_cast<uint64_t>(ns);
        return loc;
    }

  private:
    std::unique_ptr<mut::Localizer> inner_;
    LocalizeTally *tally_;
};

/** Checks the coverage timeline: one checkpoint per grid boundary,
 *  counters non-decreasing. */
bool
timelineOnGrid(const std::vector<fuzz::Checkpoint> &timeline,
               uint64_t budget, uint64_t every)
{
    if (every == 0 || timeline.size() != budget / every)
        return false;
    for (size_t i = 0; i < timeline.size(); ++i) {
        const auto &cp = timeline[i];
        if (cp.execs != (i + 1) * every)
            return false;
        if (i > 0) {
            const auto &prev = timeline[i - 1];
            if (cp.edges < prev.edges || cp.blocks < prev.blocks ||
                cp.crashes < prev.crashes)
                return false;
        }
    }
    return true;
}

bool
sameResult(const exec::ExecResult &a, const exec::ExecResult &b)
{
    if (a.calls.size() != b.calls.size() || a.crashed != b.crashed)
        return false;
    for (size_t i = 0; i < a.calls.size(); ++i) {
        const auto &x = a.calls[i];
        const auto &y = b.calls[i];
        if (x.call_index != y.call_index ||
            x.syscall_id != y.syscall_id || x.blocks != y.blocks ||
            x.ret != y.ret || x.crashed != y.crashed)
            return false;
    }
    if (a.crashed &&
        (a.bug_index != b.bug_index || a.crash_call != b.crash_call))
        return false;
    return a.coverage.blocks() == b.coverage.blocks() &&
           a.coverage.edges() == b.coverage.edges();
}

}  // namespace

const Workload *
findWorkload(const std::string &name, bool tiny)
{
    static const std::vector<Workload> full = table();
    static const std::vector<Workload> small = [] {
        auto t = table();
        for (auto &w : t) {
            w.budget /= 20;
            w.edge_target /= 3;
            w.setup_reps = 1;
            w.campaign_s /= 20;
        }
        return t;
    }();
    for (const auto &w : tiny ? small : full) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

void
Metrics::add(const std::string &name, double value,
             const std::string &unit)
{
    entries_.push_back({name, value, unit});
}

void
Gate::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "perfbench: check FAILED: %s\n",
                     what.c_str());
    }
}

void
Gate::count(uint64_t ops, uint64_t bad, const std::string &what)
{
    attempted += ops;
    failed += bad;
    if (bad != 0) {
        std::fprintf(stderr, "perfbench: %llu of %llu FAILED: %s\n",
                     static_cast<unsigned long long>(bad),
                     static_cast<unsigned long long>(ops), what.c_str());
    }
}

void
LocalizeTally::add(const LocalizeTally &other)
{
    for (size_t c = 0; c < mut::kLocalizerChannels; ++c) {
        calls[c] += other.calls[c];
        ns[c] += other.ns[c];
    }
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t
campaignSeed(uint64_t run_seed, size_t index)
{
    return (splitmix64(run_seed * 1000003ull + index) & 0x7fffffffull) |
           1ull;
}

double
hostSlowdown()
{
    // Hashing, small allocations and sorts over a 1 MiB table: the
    // kinds of work the fuzz loop does, in none of its code.
    static std::vector<uint64_t> table(1u << 17);
    const auto start = Clock::now();
    uint64_t x = 0x9e3779b97f4a7c15ull;
    uint64_t acc = 0;
    for (int round = 0; round < 64; ++round) {
        std::vector<std::vector<uint32_t>> bags(64);
        for (int i = 0; i < 4096; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            uint64_t &slot = table[(x >> 33) & (table.size() - 1)];
            slot += x;
            acc += slot;
            bags[(x >> 20) & 63].push_back(static_cast<uint32_t>(acc));
        }
        for (auto &bag : bags) {
            std::sort(bag.begin(), bag.end());
            acc += bag.empty() ? 0 : bag.front();
        }
    }
    static volatile uint64_t sink = 0;
    sink = sink + acc;
    return secondsSince(start) / kReferenceIdleS;
}

kern::Kernel
buildDefaultKernel()
{
    kern::KernelGenParams params;
    params.seed = 2024;
    params.version = "6.8";
    params.evolution = 0;
    return kern::buildBaseKernel(params);
}

std::unique_ptr<core::Pmm>
trainSetupModel(const kern::Kernel &kernel, float *threshold)
{
    auto dataset = core::collectDataset(kernel, datasetOptions());
    auto model = std::make_unique<core::Pmm>();
    *threshold = core::trainPmm(*model, dataset, trainOptions()).best_threshold;
    return model;
}

fuzz::CampaignOptions
campaignOptions(const Workload &w, uint64_t seed)
{
    fuzz::CampaignOptions opts;
    opts.workers = w.workers;
    opts.fuzz.exec_budget = w.budget;
    opts.fuzz.seed = seed;
    // The CLI's grid: twelve checkpoints per campaign.
    opts.fuzz.checkpoint_every = std::max<uint64_t>(1, w.budget / 12);
    return opts;
}

namespace {

/**
 * One set-up repetition, timed into `setup`: build the kernel, train
 * the PMM (SnowplowAsync), and construct the campaign — engine and
 * inference service in-process, the coordinator for the fleet.
 * Returns the trained model (null without one) and leaves the kernel
 * in `setup.kernel`.
 */
std::unique_ptr<core::Pmm>
setupOnce(const Workload &w, Setup &setup)
{
    const auto start = Clock::now();
    auto kernel = std::make_unique<kern::Kernel>(buildDefaultKernel());
    setup.kernel_ms.push_back(secondsSince(start) * 1e3);

    Setup probe;
    if (w.kind == Kind::SnowplowAsync) {
        const auto train_start = Clock::now();
        probe.model = trainSetupModel(*kernel, &probe.threshold);
        setup.train_s.push_back(secondsSince(train_start));
    }
    if (w.kind == Kind::Fleet) {
        fleet::Coordinator coordinator(*kernel,
                                       fleetOptions(w, campaignSeed(0, 0)));
        coordinator.stop();
    } else {
        probe.kernel = std::move(kernel);
        InProcessCampaign campaign(w, probe, campaignSeed(0, 0), false, "");
        kernel = std::move(probe.kernel);
    }
    setup.setup_s.push_back(secondsSince(start));
    setup.kernel = std::move(kernel);
    setup.threshold = probe.threshold;
    return std::move(probe.model);
}

}  // namespace

Setup
runSetup(const Workload &w, Gate &gate)
{
    Setup setup;
    std::vector<std::unique_ptr<core::Pmm>> models;
    hostSlowdown();  // first touch of the reference table
    double slow_before = hostSlowdown();
    for (size_t rep = 0; rep < w.setup_reps; ++rep) {
        if (auto model = setupOnce(w, setup))
            models.push_back(std::move(model));
        const double slow_after = hostSlowdown();
        setup.setup_s.back() /= 0.5 * (slow_before + slow_after);
        slow_before = slow_after;
    }
    if (w.kind == Kind::SnowplowAsync) {
        bool same = true;
        for (size_t i = 1; i < models.size(); ++i)
            same = same && sameParameters(*models[0], *models[i]);
        gate.check(same, "set-up trains the same PMM every repetition");
        setup.model = std::move(models.back());
    }
    return setup;
}

/** Per-campaign state the engine's localizers and observers use. */
struct InProcessCampaign::State
{
    std::unique_ptr<core::InferenceService> service;
    std::shared_ptr<core::PredictionCache> cache;
    std::unique_ptr<obs::CovMap> covmap;
    std::unique_ptr<obs::TimelineRecorder> timeline;
    std::string covmap_path;
    std::string timeline_path;
    std::vector<LocalizeTally> tallies;
    std::vector<core::AsyncPmmLocalizer *> async_localizers;

    /** time_to_edges_s watch, read by the mutation observer. */
    std::atomic<const fuzz::Corpus *> corpus{nullptr};
    std::atomic<int64_t> hit_ns{-1};
    Clock::time_point start;
};

InProcessCampaign::InProcessCampaign(const Workload &w, const Setup &setup,
                                     uint64_t seed, bool traced,
                                     const std::string &out_dir)
    : w_(w), traced_(traced),
      opts_(campaignOptions(w, seed)), state_(std::make_unique<State>())
{
    const kern::Kernel &kernel = *setup.kernel;
    State &st = *state_;
    st.tallies.resize(w.workers);

    if (w.observed) {
        st.covmap = std::make_unique<obs::CovMap>(
            obs::CovMapPlan::build(kernel.blocks().size(),
                                   kernel.staticEdges()),
            w.workers);
        st.timeline = std::make_unique<obs::TimelineRecorder>(
            obs::TimelineOptions{});
        if (!out_dir.empty()) {
            st.covmap_path = out_dir + "/covmap.jsonl";
            st.timeline_path = out_dir + "/timeline.jsonl";
            if (!st.covmap->openLog(st.covmap_path, ""))
                st.covmap_path.clear();
            if (!st.timeline->openLog(st.timeline_path, ""))
                st.timeline_path.clear();
        }
        opts_.fuzz.covmap = st.covmap.get();
        opts_.fuzz.timeline = st.timeline.get();
    }

    const size_t target = w.edge_target;
    State *state = state_.get();
    opts_.on_mutation = [state, target](const fuzz::MutationEvent &) {
        if (state->hit_ns.load(std::memory_order_relaxed) >= 0)
            return;
        const fuzz::Corpus *corpus =
            state->corpus.load(std::memory_order_acquire);
        if (corpus == nullptr || corpus->edgeCount() < target)
            return;
        int64_t none = -1;
        const int64_t ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - state->start)
                .count();
        state->hit_ns.compare_exchange_strong(none, ns);
    };

    fuzz::CampaignEngine::LocalizerFactory inner;
    if (w.kind == Kind::SnowplowAsync) {
        st.service = std::make_unique<core::InferenceService>(
            *setup.model, w.infer_threads);
        core::SnowplowOptions sopts;
        sopts.threshold = setup.threshold;
        sopts.exec_backend = opts_.fuzz.exec_backend;
        st.cache = std::make_shared<core::PredictionCache>(
            sopts.cache_capacity);
        inner = [&kernel, state, sopts](size_t) {
            auto loc = std::make_unique<core::AsyncPmmLocalizer>(
                kernel, *state->service, sopts, state->cache);
            state->async_localizers.push_back(loc.get());
            return std::unique_ptr<mut::Localizer>(std::move(loc));
        };
    } else {
        inner = [](size_t) -> std::unique_ptr<mut::Localizer> {
            return std::make_unique<mut::RandomLocalizer>();
        };
    }
    fuzz::CampaignEngine::LocalizerFactory factory = inner;
    if (traced) {
        factory = [inner, state](size_t worker)
            -> std::unique_ptr<mut::Localizer> {
            return std::make_unique<TimedLocalizer>(
                inner(worker), &state->tallies[worker]);
        };
    }
    engine_ = std::make_unique<fuzz::CampaignEngine>(kernel, opts_, factory);
    st.corpus.store(&engine_->corpus(), std::memory_order_release);
}

InProcessCampaign::~InProcessCampaign()
{
    engine_.reset();
    if (!state_->covmap_path.empty())
        std::filesystem::remove(state_->covmap_path);
    if (!state_->timeline_path.empty())
        std::filesystem::remove(state_->timeline_path);
}

CampaignResult
InProcessCampaign::run(Gate &gate)
{
    State &st = *state_;
    CampaignResult r;
    r.seed = opts_.fuzz.seed;

    st.start = Clock::now();
    fuzz::FuzzReport report = engine_->run();
    r.wall_s = secondsSince(st.start);

    const int64_t hit = st.hit_ns.load();
    r.time_to_edges_s = hit >= 0 ? static_cast<double>(hit) * 1e-9 : r.wall_s;
    r.final_edges = report.final_edges;
    r.unique_crashes = report.final_crashes;
    r.execs = report.execs;
    r.checkpoints = report.timeline.size();

    const std::string tag =
        w_.name + " seed " + std::to_string(r.seed) + ": ";
    const uint64_t every = opts_.fuzz.checkpoint_every;
    gate.check(report.execs == w_.budget &&
                   engine_->corpus().edgeCount() == report.final_edges,
               tag + "campaign consumed exactly its budget");
    gate.check(hit >= 0, tag + "coverage reached the edge target of " +
                             std::to_string(w_.edge_target));
    gate.check(timelineOnGrid(report.timeline, w_.budget, every) &&
                   (report.timeline.empty() ||
                    report.timeline.back().edges <= report.final_edges),
               tag + "timeline monotone on the checkpoint grid");

    if (st.timeline != nullptr) {
        fuzz::Checkpoint last;
        last.execs = report.execs;
        last.edges = report.final_edges;
        last.blocks = report.final_blocks;
        last.crashes = report.final_crashes;
        st.covmap->finalize(report.execs);
        st.timeline->finalize(fuzz::makeTimelineTick(
            last, report.corpus_size, st.covmap.get(), engine_->policy()));
        const auto samples = st.timeline->samples();
        // One sample per grid boundary, then the final one at budget.
        bool ok = samples.size() == report.timeline.size() + 1 &&
                  samples.back().tick.execs == w_.budget;
        for (size_t i = 0; ok && i < samples.size(); ++i) {
            const auto &tick = samples[i].tick;
            ok = (i + 1 == samples.size() || tick.execs == (i + 1) * every) &&
                 (i == 0 || tick.edges >= samples[i - 1].tick.edges);
        }
        gate.check(ok, tag + "timeline artifact monotone on the grid");
        std::error_code ec;
        for (const auto &path : {st.covmap_path, st.timeline_path}) {
            if (!path.empty())
                r.artifact_bytes += std::filesystem::file_size(path, ec);
        }
    }

    if (traced_) {
        for (const auto &tally : st.tallies)
            r.localize.add(tally);
        for (const auto *loc : st.async_localizers)
            r.graph_queries += loc->submitted();
        if (st.service != nullptr)
            r.infer = st.service->stats();
        if (st.cache != nullptr) {
            r.cache_hits = st.cache->hits();
            r.cache_misses = st.cache->misses();
            r.cache_evictions = st.cache->evictions();
        }
    }
    r.report = std::move(report);
    return r;
}

void
checkCorpus(const kern::Kernel &kernel, const fuzz::CampaignEngine &engine,
            uint64_t seed, Gate &gate)
{
    const fuzz::Corpus &corpus = engine.corpus();
    const size_t n = corpus.size();

    // Backend parity: the fast backend against the reference
    // interpreter, bit for bit, on an evenly spaced sample.
    exec::Executor fast(kernel, exec::ExecOptions{
                                    true, 0, exec::BackendKind::Fast});
    exec::Executor ref(kernel, exec::ExecOptions{
                                   true, 0, exec::BackendKind::Reference});
    const size_t sample = std::min<size_t>(n, 64);
    bool parity = n > 0;
    for (size_t i = 0; parity && i < sample; ++i) {
        const auto &program = corpus.entry(i * n / sample).program;
        parity = sameResult(fast.run(program), ref.run(program));
    }
    gate.check(parity, "seed " + std::to_string(seed) +
                           ": fast backend matches reference");

    bool round_trip = n > 0;
    for (size_t i = 0; round_trip && i < n; ++i) {
        const auto &program = corpus.entry(i).program;
        const std::string text = prog::formatProg(program);
        auto parsed = prog::parseProg(text, kernel.table());
        round_trip = parsed.ok() && parsed.prog->equals(program) &&
                     prog::formatProg(*parsed.prog) == text;
    }
    gate.check(round_trip, "seed " + std::to_string(seed) +
                               ": corpus survives formatProg/parseProg");
}

}  // namespace perfbench
