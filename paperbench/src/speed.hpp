/**
 * @file
 * Host-time measurement at a reference host speed.
 *
 * On a shared host the speed of one core drifts by up to 2x within
 * minutes, as neighbours come and go, and every wall-clock time of the
 * simulator drifts with it. The drift is per core and changes within a
 * second, so it cannot be averaged out over a run. It can be measured:
 * fixed probe routines timed on the same thread, between short
 * stretches of the measured work, slow down with it. There are two,
 * because a neighbour can slow the core (an SMT sibling competing for
 * its pipelines) or the memory below it (shared cache and DRAM
 * bandwidth), and the simulator feels both: a branchy interpreter loop
 * that stays in registers, and a dependent pointer chase through a
 * buffer far larger than the core's private caches.
 *
 * RefClock splits a measured stretch at marks. At every mark it times
 * both probes; the host's speed there is the geometric mean of
 * kProbeRefS / (interpreter time) and kChaseRefS / (chase time). The
 * raw time since the previous mark is scaled by the mean speed at its
 * two ends, and the sum is the time the stretch would have taken on a
 * host where the probes take kProbeRefS and kChaseRefS. Probe time
 * itself is left out of both sums.
 *
 * Neither probe alone tracks the simulator: over eight runs of each
 * paper workload on a shared 4-vCPU host, the interpreter alone left a
 * run-to-run spread of 0.086 on paper-pdom and the raw time one of 0.086
 * on paper-uk; the geometric mean gave 0.069 and 0.039, and the least
 * leg-to-leg variation within a run of the choices tried.
 *
 * Work on N threads runs at the pace of its slowest core, so a clock
 * for N threads runs the probe on N threads at once and takes the
 * slowest. The simulator's own workers are parked between runUntil
 * chunks, so no more than N threads run at a time.
 */

#ifndef PAPERBENCH_SPEED_HPP
#define PAPERBENCH_SPEED_HPP

#include "spans.hpp"

namespace paperbench {

/// Probe times of the reference host speed (typical on an unloaded
/// 2.0 GHz Xeon core); they only set the scale of reference times.
constexpr double kProbeRefS = 0.0006;
constexpr double kChaseRefS = 0.0008;

/** Run the interpreter probe once; returns its host seconds. */
double probeSeconds();

/** Run the pointer-chase probe once; returns its host seconds. */
double chaseSeconds();

/**
 * Build the pointer-chase buffer (tens of milliseconds, once per
 * process); call it before the first timed step.
 */
void initProbes();

/** Host speed now, relative to the reference (1 = reference). */
double hostSpeed();

class RefClock
{
  public:
    /** Start a stretch of @p threads-thread work now (after a probe). */
    explicit RefClock(int threads = 1, SpanLog *spans = nullptr);

    /** End the interval since the previous mark (or the start). */
    void mark();

    /** Raw host seconds of the marked intervals, probes excluded. */
    double rawS() const { return rawS_; }
    /** The same intervals at the reference host speed. */
    double refS() const { return refS_; }

  private:
    double probe();

    int threads_;
    SpanLog *spans_;
    double rawS_ = 0.0;
    double refS_ = 0.0;
    double lastSpeed_;
    Clock::time_point last_;
};

} // namespace paperbench

#endif // PAPERBENCH_SPEED_HPP
