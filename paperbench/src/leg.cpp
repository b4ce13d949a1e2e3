#include "leg.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>

#include "harness/chaos.hpp"
#include "harness/serialize.hpp"
#include "kernels/scene_upload.hpp"
#include "rt/scenes.hpp"
#include "serve/sha256.hpp"
#include "speed.hpp"
#include "trace/export.hpp"

extern char **environ;

namespace paperbench {

using namespace uksim;

namespace {

std::string
kernelName(harness::KernelKind kind)
{
    switch (kind) {
    case harness::KernelKind::Traditional: return "pdom";
    case harness::KernelKind::MicroKernel: return "uk";
    case harness::KernelKind::MicroKernelAdaptive: return "uk_adaptive";
    case harness::KernelKind::PersistentThreads: return "pt";
    }
    return "?";
}

std::string
sceneKey(const harness::ExperimentConfig &c, float jx, float jy)
{
    const rt::SceneParams &p = c.sceneParams;
    std::ostringstream os;
    os << c.sceneName << "/" << p.imageWidth << "x" << p.imageHeight
       << "/d" << p.detail << "/seed" << p.seed;
    if (jx != 0.0f || jy != 0.0f)
        os << "/jitter" << jx << "," << jy;
    return os.str();
}

/**
 * A hit record the kernel finished writing. Output memory starts zeroed
 * and every kernel stores the triangle id before t, so a nonzero t means
 * both words landed; a ray cut off by the cycle window between the two
 * stores has an id but t == +0 and is not yet complete.
 */
bool
written(const rt::Hit &h)
{
    uint32_t tBits = 0;
    std::memcpy(&tBits, &h.t, 4);
    return tBits != 0;
}

void
recordCounters(LegResult &r, const Gpu &gpu,
               const harness::ExperimentResult &res, size_t triangles,
               size_t kdNodes)
{
    const SimStats &s = res.stats;
    auto &c = r.c;
    c["sms"] = gpu.numSms();
    c["triangles"] = double(triangles);
    c["kd_nodes"] = double(kdNodes);
    c["cycles"] = double(s.cycles);
    c["warp_issues"] = double(s.warpIssues);
    c["lane_instructions"] = double(s.laneInstructions);
    c["items_completed"] = double(s.itemsCompleted);
    c["ran_to_completion"] = res.ranToCompletion ? 1 : 0;
    c["sim_time_s"] = double(s.cycles) / (gpu.config().clockGhz * 1e9);
    c["warp_size"] = gpu.config().warpSize;
    c["ipc"] = res.ipc;
    c["mrays_per_s"] = res.mraysPerSec;
    c["simt_efficiency"] = res.simtEfficiency;
    c["threads_spawned"] = double(s.dynamicThreadsSpawned);
    c["warps_formed"] = double(s.dynamicWarpsFormed);
    c["partial_flushes"] = double(s.partialWarpFlushes);
    c["spawn_mem_bytes"] =
        double(s.spawnMemReadBytes + s.spawnMemWriteBytes);
    c["dram_bytes"] = double(s.dramReadBytes + s.dramWriteBytes);
    c["dram_transactions"] = double(s.dramTransactions);
    c["onchip_bytes"] = double(s.onChipReadBytes + s.onChipWriteBytes);
    c["bank_conflict_cycles"] = double(s.bankConflictExtraCycles);
    c["tex_l1_hits"] = double(s.texL1Hits);
    c["tex_l1_misses"] = double(s.texL1Misses);
    c["tex_l2_hits"] = double(s.texL2Hits);
    c["tex_l2_misses"] = double(s.texL2Misses);
    for (int i = 0; i < trace::kNumStallReasons; i++) {
        const auto reason = static_cast<trace::StallReason>(i);
        c[std::string("stall.") + trace::stallReasonName(reason)] =
            double(s.stall.count(reason));
    }
    c["stall_total"] = double(s.stall.total());

    const EpochStats &ep = res.epoch;
    c["epoch.epochs"] = double(ep.epochs);
    c["epoch.rounds"] = double(ep.rounds);
    c["epoch.cycles_total"] = double(ep.cyclesTotal);
    c["epoch.cap_mem_latency"] = double(ep.capMemLatency);
    r.t["epoch.advance_s"] = double(ep.advanceWallNs) * 1e-9;
    r.t["epoch.merge_s"] = double(ep.mergeWallNs) * 1e-9;

    c["ff.cycles_skipped"] = double(res.fastForward.cyclesSkipped);
    c["ff.jumps"] = double(res.fastForward.jumps);

    const BlockExecStats &bx = res.blockExec;
    c["blockexec.fused_ops"] = double(bx.fusedOps);
    uint64_t fallbacks = 0;
    for (uint64_t f : bx.fallbacks)
        fallbacks += f;
    c["blockexec.fallbacks"] = double(fallbacks);
    r.t["blockexec.compile_s"] = double(bx.compileWallNs) * 1e-9;
}

void
checkHits(LegResult &r, const std::vector<rt::Hit> &hits,
          const rt::RenderResult &ref, uint64_t itemsCompleted)
{
    if (hits.size() != ref.hits.size()) {
        r.failures.push_back(r.point + ": " + std::to_string(hits.size()) +
                             " hit records, reference has " +
                             std::to_string(ref.hits.size()));
        return;
    }
    uint64_t done = 0;
    uint64_t mismatches = 0;
    for (size_t i = 0; i < hits.size(); i++) {
        if (!written(hits[i]))
            continue;
        done++;
        const rt::Hit &want = ref.hits[i];
        if (hits[i].triId != want.triId ||
            (want.valid() && hits[i].t != want.t))
            mismatches++;
    }
    r.c["rays_checked"] = double(done);
    if (mismatches) {
        r.failures.push_back(r.point + ": " + std::to_string(mismatches) +
                             " completed rays differ from renderReference");
    }
    // A ray's record is written before its last thread retires, so a
    // few rays in flight at the window's end may be written but not yet
    // counted; a completed ray without a record is a lost result.
    if (done < itemsCompleted) {
        r.failures.push_back(r.point + ": " + std::to_string(done) +
                             " hit records written but " +
                             std::to_string(itemsCompleted) +
                             " rays completed");
    }
}

} // anonymous namespace

std::string
pointKey(const harness::ExperimentConfig &c, float jx, float jy)
{
    return kernelName(c.kernel) + "_" + sceneKey(c, jx, jy) + "/c" +
           std::to_string(c.maxCycles) + "/sms" +
           std::to_string(c.baseConfig.numSms);
}

void
clearSimulatorEnv()
{
    std::vector<std::string> names;
    for (char **e = environ; e && *e; e++) {
        const std::string kv = *e;
        if (kv.rfind("UKSIM_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
}

LegResult
runLeg(const LegOptions &opts, ReferenceCache &refs)
{
    const harness::ExperimentConfig &config = opts.config;
    LegResult r;
    r.point = pointKey(config, opts.jitterX, opts.jitterY);
    const std::string inputKey =
        sceneKey(config, opts.jitterX, opts.jitterY);
    r.threads = opts.threads;
    SpanLog *sl = opts.spans;
    try {
        Scope legSpan(sl, "leg");
        setenv("UKSIM_THREADS", std::to_string(opts.threads).c_str(), 1);
        const auto t0 = Clock::now();
        // Setup runs on this thread; the ends of its steps are the
        // clock's marks.
        RefClock setupClock(1, sl);
        bool inSetup = true;
        auto step = [&](const char *name, auto &&fn) {
            {
                Scope s(sl, name);
                const auto ts = Clock::now();
                fn();
                r.t[name] = secondsSince(ts);
            }
            if (inSetup)
                setupClock.mark();
        };

        rt::Scene scene;
        rt::KdTree tree;
        Program program;
        step("rt.makeSceneByName", [&] {
            scene = rt::makeSceneByName(config.sceneName, config.sceneParams);
            rt::Camera &cam = scene.camera;
            cam.lowerLeft = cam.lowerLeft + cam.du * opts.jitterX +
                            cam.dv * opts.jitterY;
        });
        step("rt.KdTree::build", [&] {
            tree = rt::KdTree::build(scene.triangles,
                                     harness::sceneBuildParams());
        });
        step("kernels.build",
             [&] { program = harness::kernelProgram(config.kernel); });
        const GpuConfig gc = harness::resolvedGpuConfig(config);
        std::unique_ptr<Gpu> gpu;
        step("simt.Gpu", [&] { gpu = std::make_unique<Gpu>(gc); });
        step("simt.loadProgram",
             [&] { gpu->loadProgram(std::move(program)); });
        if (opts.events)
            gpu->eventTrace().enable(config.traceCapacity);
        kernels::DeviceScene dev;
        step("kernels.uploadScene", [&] {
            dev = kernels::uploadScene(*gpu, tree, scene.camera);
        });
        r.t["setup_s"] = setupClock.rawS();
        r.t["setup_ref_s"] = setupClock.refS();
        inSetup = false;
        if (opts.setupOnly)
            return r;

        // Every leg drives run() through runUntil chunks, which is
        // bit-neutral by contract (the default-seed pins hold unchunked
        // digests); the chunk ends are where the clock probes the host.
        RefClock clock(opts.threads, sl);
        {
            Scope s(sl, "simt.launch");
            gpu->launch(dev.rayCount);
        }
        {
            Scope s(sl, "simt.run");
            while (!gpu->finished() && gpu->cycle() < gc.maxCycles) {
                const uint64_t before = gpu->cycle();
                {
                    Scope chunk(sl, "simt.runUntil");
                    gpu->runUntil(
                        std::min(before + kChunkCycles, gc.maxCycles));
                }
                clock.mark();
                if (gpu->cycle() == before)
                    break;
            }
            gpu->run();
            clock.mark();
        }
        r.t["sim_s"] = clock.rawS();
        r.t["sim_ref_s"] = clock.refS();
        // Probe time, which leg_s leaves out like sim_s does.
        const double probeS = secondsSince(t0) - setupClock.rawS() -
                              clock.rawS();

        harness::ExperimentResult res;
        res.stats = gpu->stats();
        res.occupancy = gpu->occupancy();
        res.ranToCompletion = gpu->finished();
        res.outcome = gpu->outcome();
        res.faults = gpu->faults();
        if (res.outcome != RunOutcome::Completed) {
            std::ostringstream dump;
            gpu->dumpState(dump);
            res.flightRecord = dump.str();
        }
        res.ipc = res.stats.ipc();
        res.simtEfficiency = res.stats.simtEfficiency(gc.warpSize);
        res.fastForward = gpu->fastForwardStats();
        res.epoch = gpu->epochStats();
        res.blockExec = gpu->blockExecStats();
        res.mraysPerSec = res.stats.itemsPerSecond(gc.clockGhz) / 1e6;
        step("kernels.downloadHits",
             [&] { res.hits = kernels::downloadHits(*gpu, dev); });
        for (int i = 0; i < gpu->numSms(); i++)
            res.smStalls.push_back(gpu->sm(i).stallCounters());
        if (opts.events) {
            step("trace.chromeTraceJson", [&] {
                res.chromeTrace = gpu->eventTrace().chromeTraceJson(
                    gpu->numSms(), gc.numMemPartitions);
            });
            step("trace.buildRegistry", [&] {
                trace::Registry reg = trace::buildRegistry(*gpu);
                chaos::ChaosEngine::instance().mirrorCounters(reg);
                res.counterCsv = reg.csv();
                res.counterJson = reg.json();
            });
        }
        step("harness.serializeResult",
             [&] { r.payload = harness::serializeResult(res); });
        step("serve.sha256Hex",
             [&] { r.digest = serve::sha256Hex(r.payload); });
        r.t["leg_s"] = secondsSince(t0) - probeS;
        recordCounters(r, *gpu, res, scene.triangles.size(),
                       tree.nodes().size());
        if (res.outcome != RunOutcome::Completed &&
            res.outcome != RunOutcome::CycleLimit)
            r.failures.push_back(r.point + ": run outcome " +
                                 runOutcomeName(res.outcome));

        // The check is outside the timed leg; the reference image of a
        // point is rendered once per process and shared by its legs.
        auto it = refs.byScene.find(inputKey);
        if (it == refs.byScene.end()) {
            Scope s(sl, "rt.renderReference");
            const auto ts = Clock::now();
            ReferenceCache::Entry e;
            e.render = rt::renderReference(tree, scene.camera);
            e.seconds = secondsSince(ts);
            it = refs.byScene.emplace(inputKey, std::move(e)).first;
        }
        checkHits(r, res.hits, it->second.render, res.stats.itemsCompleted);
    } catch (const std::exception &e) {
        r.failures.push_back(r.point + ": " + e.what());
    }
    return r;
}

} // namespace paperbench
