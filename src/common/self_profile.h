/**
 * @file
 * Wall-clock self-profiling for the harness: named scopes accumulate
 * host-time totals into a process-global table so a sweep can report
 * where real time went (workload synthesis vs. simulation vs. export).
 * This measures the *simulator*, not the simulated GPU — totals go to
 * stderr and, when CABA_PROF is set, into the `caba-prof-v1` artifact
 * (common/prof.h embeds snapshot() under "self_profile"); they are
 * deliberately kept out of the deterministic bench JSON exports, which
 * must stay byte-identical across runs and job counts.
 */
#ifndef CABA_COMMON_SELF_PROFILE_H
#define CABA_COMMON_SELF_PROFILE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace caba {

/** Process-global accumulation of host nanoseconds by scope name.
 *  All methods are thread-safe. */
class SelfProfile
{
  public:
    /** RAII scope: adds its lifetime to the named bucket. */
    class Scope
    {
      public:
        explicit Scope(const char *name)
            : name_(name), begin_(std::chrono::steady_clock::now())
        {}

        ~Scope()
        {
            auto end = std::chrono::steady_clock::now();
            add(name_, std::chrono::duration_cast<std::chrono::nanoseconds>(
                           end - begin_)
                           .count());
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        const char *name_;
        std::chrono::steady_clock::time_point begin_;
    };

    /** Adds @p ns to bucket @p name. */
    static void add(const char *name, std::int64_t ns);

    /** Snapshot of all buckets (name -> total nanoseconds). */
    static std::map<std::string, std::int64_t> snapshot();
};

} // namespace caba

#endif // CABA_COMMON_SELF_PROFILE_H
