/**
 * @file
 * The fleet workload: an in-process coordinator and N loopback node
 * threads draining one budget.
 */
#include <thread>

#include "bench.h"
#include "fleet/node.h"

namespace perfbench {

fleet::CoordinatorOptions
fleetOptions(const Workload &w, uint64_t seed)
{
    fleet::CoordinatorOptions opts;
    opts.budget = w.budget;
    opts.seed = seed;
    // Sixteen leases per node: enough that per-lease cost (engine
    // rebuild, seed stage, wire round trip) shows in the drain time.
    opts.checkpoint_every = std::max<uint64_t>(1, w.budget / (16 * w.workers));
    opts.lease_slots = opts.checkpoint_every;
    opts.serve_status = false;
    return opts;
}

CampaignResult
runFleetCampaign(const Workload &w, const Setup &setup, uint64_t seed,
                 const std::string &out_dir, Gate &gate)
{
    CampaignResult r;
    r.seed = seed;
    fleet::Coordinator coordinator(*setup.kernel, fleetOptions(w, seed));

    std::vector<fleet::NodeStats> nodes(w.workers);
    std::vector<double> node_wall(w.workers, 0.0);
    std::vector<std::thread> threads;
    const auto start = Clock::now();
    for (size_t i = 0; i < w.workers; ++i) {
        threads.emplace_back([&, i] {
            fleet::NodeOptions nopts;
            nopts.port = coordinator.port();
            nopts.name = "node-" + std::to_string(i);
            nopts.scratch_dir = out_dir;
            const auto node_start = Clock::now();
            nodes[i] = fleet::runNode(nopts);
            node_wall[i] = secondsSince(node_start);
        });
    }

    // The idle main thread polls merged coverage for time_to_edges_s;
    // waitUntilDrained doubles as the 1 ms poll sleep and wakes at once
    // on drain. A drain that outlives the limit fails the gate.
    constexpr double kLimitS = 30.0;
    bool drained = false;
    bool reached = false;
    while (!drained && secondsSince(start) < kLimitS) {
        drained = coordinator.waitUntilDrained(1);
        if (!reached && coordinator.stats().edges >= w.edge_target) {
            reached = true;
            r.time_to_edges_s = secondsSince(start);
        }
    }
    r.wall_s = secondsSince(start);
    if (!reached)
        r.time_to_edges_s = r.wall_s;
    coordinator.stop();
    for (auto &t : threads)
        t.join();

    const fleet::CoordinatorStats st = coordinator.stats();
    r.final_edges = st.edges;
    r.unique_crashes = st.unique_crashes;
    r.execs = st.watermark;
    r.leases = st.leases_granted;
    r.bytes_wire = st.bytes_rx + st.bytes_tx;
    r.programs_pushed = st.programs_pushed;
    r.programs_deduped = st.programs_deduped;
    uint64_t node_errors = 0;
    uint64_t accepted = 0;
    for (size_t i = 0; i < w.workers; ++i) {
        r.node_execs += nodes[i].execs;
        r.node_wall_s += node_wall[i];
        accepted += nodes[i].accepted;
        if (!nodes[i].error.empty()) {
            ++node_errors;
            std::fprintf(stderr, "perfbench: node-%zu error: %s\n", i,
                         nodes[i].error.c_str());
        }
    }

    const std::string tag = w.name + " seed " + std::to_string(seed) + ": ";
    gate.count(st.leases_granted,
               st.leases_reclaimed + st.results_stale + st.frame_errors +
                   (st.leases_granted - std::min(st.leases_granted, accepted)),
               tag + "leases reclaimed, stale, errored or unacknowledged");
    gate.check(drained && st.watermark == w.budget,
               tag + "fleet drained to the full watermark");
    gate.check(node_errors == 0, tag + "no node errors");
    gate.check(reached, tag + "coverage reached the edge target of " +
                            std::to_string(w.edge_target));
    return r;
}

}  // namespace perfbench
