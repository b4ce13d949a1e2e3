/**
 * @file
 * One benchmark leg: a single simulated point driven step by step
 * through the simulator's public API, with every step timed.
 *
 * The steps are the ones harness::runExperiment takes — scene, kd-tree,
 * kernel assembly, Gpu construction, loadProgram, uploadScene, launch,
 * run, downloadHits, serializeResult — called directly so each one can
 * be timed (and, in the traced run, wrapped in a span). The result is
 * assembled exactly as runExperiment assembles it, so the payload and
 * its sha256 equal what the serve engine caches for the same job.
 */

#ifndef PAPERBENCH_LEG_HPP
#define PAPERBENCH_LEG_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "rt/cpu_tracer.hpp"
#include "spans.hpp"

namespace paperbench {

struct LegOptions {
    uksim::harness::ExperimentConfig config;
    int threads = 1;            ///< UKSIM_THREADS for this leg
    SpanLog *spans = nullptr;   ///< traced leg: span per call
    bool events = false;        ///< traceEvents + exportCounters on
    bool setupOnly = false;     ///< stop after uploadScene
    /// Sub-pixel shift of the camera's ray grid, in pixels (|x|, |y| <
    /// 0.5): the seeded input variation of the paper points. Every ray
    /// changes but the image, and so the workload, stays the same.
    float jitterX = 0.0f;
    float jitterY = 0.0f;
};

/// Cycles per runUntil chunk; the host's speed is probed between chunks.
constexpr uint64_t kChunkCycles = 5000;

struct LegResult {
    std::string point;          ///< kernel/scene/res/cycles/seed key
    int threads = 1;
    /// Host seconds per step; "setup_s" is every step before launch and
    /// "sim_s" launch + run, "setup_ref_s" and "sim_ref_s" the same at
    /// the reference host speed (speed.hpp).
    std::map<std::string, double> t;
    std::map<std::string, double> c;    ///< counters (exact)
    std::vector<uint8_t> payload;       ///< serializeResult bytes
    std::string digest;                 ///< sha256Hex(payload)
    std::vector<std::string> failures;  ///< check failures of this leg
};

/**
 * CPU reference images, computed once per point key and reused by every
 * leg of that point; the time each one took is kept for rt.reference_s.
 */
struct ReferenceCache {
    struct Entry {
        uksim::rt::RenderResult render;
        double seconds = 0.0;
    };
    std::map<std::string, Entry> byScene;
};

/** Stable key of a simulated point (also the pin key). */
std::string pointKey(const uksim::harness::ExperimentConfig &config,
                     float jitterX = 0.0f, float jitterY = 0.0f);

/** Run one leg; never throws (exceptions become leg failures). */
LegResult runLeg(const LegOptions &opts, ReferenceCache &refs);

/** Clear every UKSIM_* override from the environment. */
void clearSimulatorEnv();

} // namespace paperbench

#endif // PAPERBENCH_LEG_HPP
