/**
 * @file
 * Per-layer metrics of a traced run. Three sources:
 *
 *  - in-run tallies of the traced campaigns (the localizer decorator,
 *    FuzzReport lanes, InferenceService and PredictionCache stats,
 *    coordinator and node stats);
 *  - replays: single-threaded timings of public calls over the final
 *    corpus of the run's last traced campaign;
 *  - shares: a replayed unit cost times the traced campaigns' call
 *    count, over their wall time times the threads the workload keeps
 *    busy — an estimate of the fraction of campaign time the call takes.
 *
 * A metric whose layer the workload does not run reads 0.
 */
#include <thread>

#include "bench.h"
#include "core/snowplow.h"
#include "fleet/wire.h"
#include "graph/encode.h"
#include "graph/query_graph.h"
#include "obs/covmap.h"
#include "obs/timeline.h"
#include "prog/serialize.h"

namespace perfbench {

namespace {

/** Keeps replayed results observable so calls are not optimised out. */
volatile uint64_t g_sink = 0;

/**
 * Mean microseconds per call of `fn(i)` over i in [0, n), repeating
 * whole passes until at least `min_s` seconds have been timed.
 */
template <typename Fn>
double
perCallUs(size_t n, Fn &&fn, double min_s = 0.05)
{
    if (n == 0)
        return 0.0;
    uint64_t calls = 0;
    const auto start = Clock::now();
    do {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        calls += n;
    } while (secondsSince(start) < min_s);
    return secondsSince(start) * 1e6 / static_cast<double>(calls);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Nanoseconds per claim(1)+complete pair on one ledger from
 *  `threads` threads, as each thread sees it. */
double
claimNs(size_t threads, uint64_t align)
{
    constexpr uint64_t kSlots = 1u << 20;
    fuzz::BudgetLedger ledger(kSlots, align);
    std::vector<std::thread> pool;
    const auto start = Clock::now();
    for (size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&ledger] {
            for (;;) {
                const fuzz::BudgetGrant g = ledger.claim(1);
                if (g.empty())
                    break;
                ledger.complete(g);
            }
        });
    }
    for (auto &t : pool)
        t.join();
    return secondsSince(start) * 1e9 * static_cast<double>(threads) /
           static_cast<double>(kSlots);
}

/** Queries per second of a 2-thread service saturated with `graphs`. */
double
serviceQps(const core::Pmm &model,
           const std::vector<graph::EncodedGraph> &graphs,
           size_t max_batch)
{
    if (graphs.empty())
        return 0.0;
    core::BatchOptions batch;
    batch.max_batch = max_batch;
    core::InferenceService service(model, 2, batch);
    const size_t queries = std::max<size_t>(graphs.size(), 512);
    std::vector<std::future<std::vector<float>>> futures;
    futures.reserve(queries);
    const auto start = Clock::now();
    for (size_t i = 0; i < queries; ++i)
        futures.push_back(service.submit(graphs[i % graphs.size()]));
    for (auto &f : futures)
        g_sink = g_sink + f.get().size();
    return static_cast<double>(queries) / secondsSince(start);
}

fleet::WireProgram
wireProgram(const fuzz::CorpusEntry &entry)
{
    fleet::WireProgram wp;
    wp.text = prog::formatProg(entry.program);
    const auto &blocks = entry.result.coverage.blocks();
    const auto &edges = entry.result.coverage.edges();
    wp.blocks.assign(blocks.begin(), blocks.end());
    wp.edges.assign(edges.begin(), edges.end());
    return wp;
}

}  // namespace

void
perLayerMetrics(const Workload &w, const Setup &setup,
                const InProcessCampaign &campaign,
                const std::vector<CampaignResult> &traced,
                const std::vector<CampaignResult> &untraced, Gate &gate,
                Metrics &out)
{
    const kern::Kernel &kernel = *setup.kernel;
    const fuzz::FuzzOptions &fopts = campaign.options();
    const fuzz::Corpus &corpus = campaign.engine().corpus();
    const bool fleet_run = w.kind == Kind::Fleet;
    const bool learned = w.kind == Kind::SnowplowAsync;

    // Replay inputs: an evenly spaced sample of the final corpus.
    std::vector<const fuzz::CorpusEntry *> entries;
    const size_t n = std::min<size_t>(corpus.size(), 400);
    for (size_t i = 0; i < n; ++i)
        entries.push_back(&corpus.entry(i * corpus.size() / n));

    // In-run totals of the traced campaigns.
    LocalizeTally loc;
    double wall = 0.0;
    uint64_t execs = 0, checkpoints = 0, graph_queries = 0;
    uint64_t inferred = 0, hits = 0, misses = 0, evictions = 0;
    uint64_t leases = 0, wire_bytes = 0, node_execs = 0, pushed = 0;
    uint64_t deduped = 0;
    double node_wall = 0.0;
    fuzz::LaneCounts arg, structural;
    std::vector<double> p50, p99, batch_mean, artifact, lease_counts;
    for (const auto &r : traced) {
        loc.add(r.localize);
        wall += r.wall_s;
        execs += fleet_run ? r.node_execs : r.execs;
        checkpoints += r.checkpoints;
        graph_queries += r.graph_queries;
        inferred += r.infer.completed;
        hits += r.cache_hits;
        misses += r.cache_misses;
        evictions += r.cache_evictions;
        leases += r.leases;
        wire_bytes += r.bytes_wire;
        node_execs += r.node_execs;
        node_wall += r.node_wall_s;
        pushed += r.programs_pushed;
        deduped += r.programs_deduped;
        for (const auto lane : {fuzz::MutationLane::Argument,
                                fuzz::MutationLane::Structural}) {
            auto &dst = lane == fuzz::MutationLane::Argument ? arg
                                                             : structural;
            dst.produced += r.report.lane(lane).produced;
            dst.admitted += r.report.lane(lane).admitted;
        }
        p50.push_back(r.infer.p50_latency_us / 1e3);
        p99.push_back(r.infer.p99_latency_us / 1e3);
        batch_mean.push_back(r.infer.mean_batch_size);
        artifact.push_back(static_cast<double>(r.artifact_bytes));
        lease_counts.push_back(static_cast<double>(r.leases));
    }
    const uint64_t mutants =
        fleet_run ? execs : arg.produced + structural.produced;
    const double busy_threads =
        static_cast<double>(w.workers + w.infer_threads);
    // Fraction of the traced campaigns' thread time `count` calls of
    // `unit_us` each would take.
    auto share = [&](double count, double unit_us) {
        return ratio(count * unit_us * 1e-6, wall * busy_threads);
    };

    // ---- set-up
    out.add("kernel.build_ms", median(setup.kernel_ms), "ms");
    out.add("core.train_s", learned ? median(setup.train_s) : 0.0, "s");

    // ---- prog / mutate / exec / fuzz over the final corpus
    const double clone_us = perCallUs(n, [&](size_t i) {
        prog::Prog copy;
        copy.calls = entries[i]->program.calls;
        g_sink = g_sink + copy.calls.size();
    });
    double args = 0.0, calls = 0.0;
    for (const auto *e : entries) {
        args += static_cast<double>(mut::allArgLocations(e->program).size());
        calls += static_cast<double>(e->result.calls.size());
    }
    const double calls_per_prog = ratio(calls, static_cast<double>(n));

    const mut::Mutator mutator(kernel.table(), fopts.mutator);
    mut::RandomLocalizer random_loc;
    Rng rng(fopts.seed);
    const double mutate_us = perCallUs(n, [&](size_t i) {
        g_sink = g_sink +
                 mutator.mutate(entries[i]->program, rng, random_loc).size();
    });

    // Sites from the workload's own localizer kind, each instantiated
    // mutations_per_site times on a fresh copy of its base, as the loop
    // does.
    core::SnowplowOptions sopts;
    sopts.threshold = setup.threshold;
    std::unique_ptr<core::PmmLocalizer> pmm_loc;
    if (learned)
        pmm_loc = std::make_unique<core::PmmLocalizer>(kernel, *setup.model,
                                                       sopts);
    uint64_t attempts = 0, stale = 0;
    double instantiate_s = 0.0;
    for (const auto *e : entries) {
        const auto sites =
            learned ? pmm_loc->localizeWithResult(e->program, e->result, rng,
                                                  fopts.max_sites_per_base)
                    : random_loc.localize(e->program, rng,
                                          fopts.max_sites_per_base);
        for (const auto &site : sites) {
            for (size_t m = 0; m < fopts.mutations_per_site; ++m) {
                prog::Prog mutant;
                mutant.calls = e->program.calls;
                ++attempts;
                const auto start = Clock::now();
                stale += !mutator.instantiateArgMutation(mutant, site, rng);
                instantiate_s += secondsSince(start);
            }
        }
    }
    const double instantiate_us =
        ratio(instantiate_s * 1e6, static_cast<double>(attempts));

    double random_localize_us =
        ratio(static_cast<double>(
                  loc.ns[size_t(mut::LocalizerChannel::Random)]) /
                  1e3,
              static_cast<double>(
                  loc.calls[size_t(mut::LocalizerChannel::Random)]));
    double random_localize_s =
        static_cast<double>(loc.ns[size_t(mut::LocalizerChannel::Random)]) *
        1e-9;
    if (fleet_run) {
        // Node localizers are built inside runNode; replay theirs.
        random_localize_us = perCallUs(n, [&](size_t i) {
            g_sink = g_sink + random_loc
                                  .localizeChosen(entries[i]->program,
                                                  entries[i]->result, rng,
                                                  fopts.max_sites_per_base,
                                                  false)
                                  .sites.size();
        });
        random_localize_s = 0.0;
    }

    exec::Executor executor(kernel, fuzz::execOptionsFor(fopts));
    const double exec_us = perCallUs(n, [&](size_t i) {
        g_sink = g_sink + executor.run(entries[i]->program).calls.size();
    });

    // Admission: every entry is offered to a fresh corpus (most are
    // admitted), then offered again (all rejected: no new edges). The
    // unit cost weights the two passes by the campaign's own admission
    // rate (corpus size over budget).
    double accept_s = 0.0, reject_s = 0.0;
    uint64_t offers = 0;
    while (n > 0 && accept_s + reject_s < 0.05) {
        fuzz::Corpus fresh(w.workers);
        for (int pass = 0; pass < 2; ++pass) {
            const auto start = Clock::now();
            for (size_t i = 0; i < n; ++i) {
                g_sink = g_sink + fresh.maybeAdd(entries[i]->program,
                                                 entries[i]->result, i);
            }
            (pass == 0 ? accept_s : reject_s) += secondsSince(start);
        }
        offers += n;
    }
    const double admit_rate = std::min(
        1.0, ratio(static_cast<double>(corpus.size()),
                   static_cast<double>(fopts.exec_budget)));
    const double admit_us =
        ratio((admit_rate * accept_s + (1.0 - admit_rate) * reject_s) * 1e6,
              static_cast<double>(offers));
    const uint64_t align = std::max<uint64_t>(1, fopts.checkpoint_every);
    const double claim_t1 = claimNs(1, align);
    const double claim_t4 = claimNs(4, align);

    out.add("prog.clone_us", clone_us, "us");
    out.add("prog.args_per_prog", ratio(args, static_cast<double>(n)),
            "count");
    out.add("mutate.mutate_us", mutate_us, "us");
    out.add("mutate.instantiate_us", instantiate_us, "us");
    out.add("mutate.stale_site_ratio",
            ratio(static_cast<double>(stale), static_cast<double>(attempts)),
            "frac");
    out.add("mutate.localize_us", random_localize_us, "us");
    out.add("exec.run_us", exec_us, "us");
    out.add("exec.calls_per_prog", calls_per_prog, "count");
    out.add("fuzz.admit_us", admit_us, "us");
    out.add("fuzz.claim_ns.t1", claim_t1, "ns");
    out.add("fuzz.claim_ns.t4", claim_t4, "ns");
    out.add("fuzz.arg_admit_ratio",
            ratio(static_cast<double>(arg.admitted),
                  static_cast<double>(arg.produced)),
            "frac");
    out.add("fuzz.struct_admit_ratio",
            ratio(static_cast<double>(structural.admitted),
                  static_cast<double>(structural.produced)),
            "frac");

    // ---- obs (replayed only where the workload records it)
    double record_ns = 0.0, merge_us = 0.0, sample_us = 0.0;
    if (w.observed) {
        obs::CovMap covmap(obs::CovMapPlan::build(kernel.blocks().size(),
                                                  kernel.staticEdges()),
                           1);
        std::vector<const std::vector<uint32_t> *> traces;
        for (const auto *e : entries) {
            for (const auto &call : e->result.calls)
                traces.push_back(&call.blocks);
        }
        record_ns = perCallUs(traces.size(), [&](size_t i) {
                        covmap.shard(0).recordTrace(*traces[i]);
                    }) *
                    1e3;
        uint64_t merge_execs = 0;
        merge_us = perCallUs(1, [&](size_t) {
            covmap.onCheckpoint(merge_execs += align);
        });
        obs::TimelineRecorder recorder;
        obs::TimelineTick tick;
        sample_us = perCallUs(1, [&](size_t) {
            tick.execs += align;
            recorder.onCheckpoint(tick);
        });
    }
    out.add("obs.covmap_record_ns", record_ns, "ns");
    out.add("obs.covmap_merge_us", merge_us, "us");
    out.add("obs.timeline_sample_us", sample_us, "us");
    out.add("obs.artifact_bytes", median(artifact), "bytes");

    // ---- core / graph / nn (replayed only where the workload runs
    // the model)
    double build_us = 0.0, encode_us = 0.0, nodes = 0.0;
    double predict_us = 0.0, batch8_us = 0.0, qps_batched = 0.0;
    double qps_unbatched = 0.0;
    if (learned) {
        const core::Pmm &model = *setup.model;
        std::vector<graph::QueryGraph> queries(n);
        build_us = perCallUs(n, [&](size_t i) {
            const auto &e = *entries[i];
            queries[i] = graph::buildQueryGraph(
                kernel, e.program, e.result,
                graph::alternativeFrontier(kernel, e.result.coverage));
        });
        std::vector<graph::EncodedGraph> encoded;
        for (const auto &q : queries) {
            nodes += static_cast<double>(q.nodes.size());
            if (!q.argument_nodes.empty())
                encoded.push_back(graph::encodeGraph(kernel, q));
        }
        graph::EncodedGraph scratch;
        encode_us = perCallUs(n, [&](size_t i) {
            graph::encodeGraphInto(kernel, queries[i], scratch);
            g_sink = g_sink + static_cast<uint64_t>(scratch.num_nodes);
        });
        predict_us = perCallUs(encoded.size(), [&](size_t i) {
            g_sink = g_sink + model.predict(encoded[i]).size();
        });
        batch8_us = perCallUs(encoded.size() / 8, [&](size_t b) {
            std::vector<const graph::EncodedGraph *> group;
            for (size_t k = 0; k < 8; ++k)
                group.push_back(&encoded[b * 8 + k]);
            g_sink = g_sink + model.predictBatch(group).size();
        });
        qps_batched = serviceQps(model, encoded, 8);
        qps_unbatched = serviceQps(model, encoded, 1);
    }

    const double model_calls = static_cast<double>(
        loc.calls[size_t(mut::LocalizerChannel::Model)]);
    const double forced_calls = static_cast<double>(
        loc.calls[size_t(mut::LocalizerChannel::ForcedRandom)]);
    const double learned_ns = static_cast<double>(
        loc.ns[size_t(mut::LocalizerChannel::Model)] +
        loc.ns[size_t(mut::LocalizerChannel::ForcedRandom)]);
    out.add("core.localize_us",
            ratio(learned_ns / 1e3, model_calls + forced_calls), "us");
    out.add("core.model_share", ratio(model_calls, model_calls + forced_calls),
            "frac");
    out.add("core.cache_hit_ratio",
            ratio(static_cast<double>(hits),
                  static_cast<double>(hits + misses)),
            "frac");
    out.add("core.cache_evictions", static_cast<double>(evictions), "count");
    out.add("core.infer_p50_ms", median(p50), "ms");
    out.add("core.infer_p99_ms", median(p99), "ms");
    out.add("core.infer_batch_mean", median(batch_mean), "count");
    out.add("graph.build_us", build_us, "us");
    out.add("graph.encode_us", encode_us, "us");
    out.add("graph.nodes_per_query", ratio(nodes, static_cast<double>(n)),
            "count");
    out.add("nn.predict_us", predict_us, "us");
    out.add("nn.predict_batch8_us", batch8_us, "us");
    out.add("core.service_qps.batched", qps_batched, "1/s");
    out.add("core.service_qps.unbatched", qps_unbatched, "1/s");

    // ---- fleet wire (replayed only on the fleet): a LeaseResultMsg
    // carries the fleet's mean number of programs pushed per lease.
    double encode_msg_us = 0.0, decode_msg_us = 0.0;
    if (fleet_run) {
        const size_t per_lease = std::max<size_t>(
            1, static_cast<size_t>(ratio(static_cast<double>(pushed),
                                         static_cast<double>(leases))));
        std::vector<fleet::LeaseResultMsg> msgs;
        for (size_t i = 0; i < n; i += per_lease) {
            fleet::LeaseResultMsg msg;
            msg.lease_id = msgs.size() + 1;
            msg.execs = align;
            for (size_t k = i; k < std::min(n, i + per_lease); ++k)
                msg.programs.push_back(wireProgram(*entries[k]));
            msgs.push_back(std::move(msg));
        }
        std::vector<std::vector<uint8_t>> payloads;
        for (const auto &msg : msgs)
            payloads.push_back(msg.encode());
        encode_msg_us = perCallUs(msgs.size(), [&](size_t i) {
            g_sink = g_sink + msgs[i].encode().size();
        });
        bool decoded_ok = true;
        decode_msg_us = perCallUs(payloads.size(), [&](size_t i) {
            fleet::LeaseResultMsg msg;
            decoded_ok = msg.decode(payloads[i]) &&
                         msg.programs.size() == msgs[i].programs.size() &&
                         decoded_ok;
            g_sink = g_sink + msg.programs.size();
        });
        gate.check(decoded_ok, w.name + ": replayed LeaseResultMsg "
                                        "payloads decode");
    }

    // ---- program text
    std::vector<std::string> texts;
    for (const auto *e : entries)
        texts.push_back(prog::formatProg(e->program));
    const double format_us = perCallUs(n, [&](size_t i) {
        g_sink = g_sink + prog::formatProg(entries[i]->program).size();
    });
    const double parse_us = perCallUs(n, [&](size_t i) {
        g_sink = g_sink + prog::parseProg(texts[i], kernel.table()).ok();
    });

    out.add("fleet.lease_node_s", ratio(node_wall, static_cast<double>(leases)),
            "s");
    out.add("fleet.leases", median(lease_counts), "count");
    out.add("fleet.bytes_per_lease",
            ratio(static_cast<double>(wire_bytes),
                  static_cast<double>(leases)),
            "bytes");
    out.add("fleet.encode_us", encode_msg_us, "us");
    out.add("fleet.decode_us", decode_msg_us, "us");
    out.add("fleet.node_exec_overhead",
            fleet_run ? ratio(static_cast<double>(node_execs),
                              static_cast<double>(w.budget * traced.size())) -
                            1.0
                      : 0.0,
            "frac");
    out.add("fleet.program_dedup_ratio",
            ratio(static_cast<double>(deduped), static_cast<double>(pushed)),
            "frac");
    out.add("prog.format_us", format_us, "us");
    out.add("prog.parse_us", parse_us, "us");

    // ---- estimated shares of campaign thread time
    const double execs_d = static_cast<double>(execs);
    const double obs_on = w.observed ? 1.0 : 0.0;
    out.add("prog.clone_share", share(static_cast<double>(mutants), clone_us),
            "frac");
    // The loop never calls Mutator::mutate (it localizes once per base
    // and instantiates per mutant), so instantiation carries the share.
    out.add("mutate.instantiate_share",
            share(static_cast<double>(mutants), instantiate_us), "frac");
    out.add("mutate.localize_share",
            ratio(random_localize_s, wall * busy_threads), "frac");
    out.add("exec.run_share", share(execs_d, exec_us), "frac");
    out.add("fuzz.admit_share", share(execs_d, admit_us), "frac");
    out.add("fuzz.claim_share",
            share(execs_d, (w.workers > 1 ? claim_t4 : claim_t1) / 1e3),
            "frac");
    out.add("obs.covmap_record_share",
            share(obs_on * execs_d * calls_per_prog, record_ns / 1e3), "frac");
    out.add("obs.covmap_merge_share",
            share(obs_on * static_cast<double>(checkpoints), merge_us), "frac");
    out.add("obs.timeline_sample_share",
            share(obs_on * static_cast<double>(checkpoints), sample_us),
            "frac");
    out.add("core.localize_share",
            ratio(learned_ns * 1e-9, wall * busy_threads), "frac");
    out.add("graph.build_share",
            share(static_cast<double>(graph_queries), build_us), "frac");
    out.add("graph.encode_share",
            share(static_cast<double>(graph_queries), encode_us), "frac");
    out.add("nn.predict_share", share(static_cast<double>(inferred), predict_us),
            "frac");
    out.add("fleet.encode_share",
            share(static_cast<double>(leases), encode_msg_us), "frac");
    out.add("fleet.decode_share",
            share(static_cast<double>(leases), decode_msg_us), "frac");
    out.add("prog.format_share", share(static_cast<double>(pushed), format_us),
            "frac");
    out.add("prog.parse_share", share(static_cast<double>(pushed), parse_us),
            "frac");

    // ---- tracing overhead: the same seeds traced and untraced, each
    // campaign host-normalised
    double traced_s = 0.0, untraced_s = 0.0;
    for (const auto &r : traced)
        traced_s += r.wall_s / r.slowdown;
    for (const auto &r : untraced)
        untraced_s += r.wall_s / r.slowdown;
    out.add("trace.overhead_frac", 1.0 - ratio(untraced_s, traced_s),
            "frac");
}

}  // namespace perfbench
