#include "speed.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

namespace paperbench {

namespace {

volatile uint64_t g_probeSink;

/// Entries of the chase buffer (16 MiB) and loads per chase probe.
constexpr uint32_t kChaseEntries = 1u << 22;
constexpr int kChaseLoads = 3000;

/** One random cycle through kChaseEntries slots: next[i] follows i. */
const std::vector<uint32_t> &
chaseBuffer()
{
    static const std::vector<uint32_t> next = [] {
        std::vector<uint32_t> order(kChaseEntries);
        for (uint32_t i = 0; i < kChaseEntries; i++)
            order[i] = i;
        uint64_t state = 0x5eed;
        for (uint32_t i = kChaseEntries - 1; i > 0; i--) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            std::swap(order[i], order[uint32_t((state >> 33) % (i + 1))]);
        }
        std::vector<uint32_t> n(kChaseEntries);
        for (uint32_t i = 0; i < kChaseEntries; i++)
            n[order[i]] = order[(i + 1) % kChaseEntries];
        return n;
    }();
    return next;
}

} // anonymous namespace

double
probeSeconds()
{
    // A four-register interpreter whose next opcode depends on the
    // data: unpredictable branches and dependent arithmetic, the mix
    // that dominates the simulator's own issue loop.
    static const uint8_t program[16] = {0, 1, 2, 3, 1, 0, 2, 3,
                                        3, 2, 1, 0, 0, 2, 1, 3};
    const auto t0 = Clock::now();
    uint64_t r[4] = {1, 2, 3, 4};
    uint32_t pc = 0;
    for (int i = 0; i < 300000; i++) {
        switch ((program[pc & 15] ^ r[0]) & 3) {
        case 0: r[1] += r[0] * 3; break;
        case 1: r[2] ^= r[1] >> 3; break;
        case 2:
            r[0] = r[0] * 6364136223846793005ull + 1442695040888963407ull;
            break;
        default: r[3] += r[2] | 1; break;
        }
        pc += 1 + uint32_t(r[0] >> 60);
    }
    g_probeSink = r[1] + r[3];
    return secondsSince(t0);
}

double
chaseSeconds()
{
    // Every load depends on the one before, and each lands on a random
    // line of a buffer no private cache holds; where the chase starts
    // moves on each time (a thread of its own per concurrent prober).
    thread_local uint32_t at = uint32_t(
        std::hash<std::thread::id>()(std::this_thread::get_id()) %
        kChaseEntries);
    const std::vector<uint32_t> &next = chaseBuffer();
    const auto t0 = Clock::now();
    uint32_t p = at;
    for (int i = 0; i < kChaseLoads; i++)
        p = next[p];
    at = p;
    return secondsSince(t0);
}

void
initProbes()
{
    chaseBuffer();
}

double
hostSpeed()
{
    return std::sqrt(kProbeRefS / probeSeconds() *
                     kChaseRefS / chaseSeconds());
}

RefClock::RefClock(int threads, SpanLog *spans)
    : threads_(threads), spans_(spans)
{
    lastSpeed_ = probe();
    last_ = Clock::now();
}

double
RefClock::probe()
{
    Scope s(spans_, "bench.probe");
    std::vector<double> speed(size_t(threads_), 0.0);
    std::vector<std::thread> helpers;
    for (int i = 1; i < threads_; i++)
        helpers.emplace_back([&speed, i] { speed[size_t(i)] = hostSpeed(); });
    speed[0] = hostSpeed();
    for (std::thread &h : helpers)
        h.join();
    return *std::min_element(speed.begin(), speed.end());
}

void
RefClock::mark()
{
    const double raw =
        std::chrono::duration<double>(Clock::now() - last_).count();
    const double speed = probe();
    rawS_ += raw;
    refS_ += raw * (lastSpeed_ + speed) / 2;
    lastSpeed_ = speed;
    last_ = Clock::now();
}

} // namespace paperbench
