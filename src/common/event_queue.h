/**
 * @file
 * Wake-time tracker for the event-driven run loop: a flat array over a
 * fixed id space [0, n) where each id carries one wake cycle, plus a
 * running minimum over that array. A GpuSystem clocks a few dozen
 * components, so the minimum is refolded by the per-cycle pass that
 * already visits every id (beginPass / keep / reschedule / endPass), and
 * wake() lowers it in O(1).
 *
 * GpuSystem uses it to answer one question in O(1): "what is the
 * earliest cycle any component wants to run?" — the quiescence jump
 * target. Per-id due checks read the flat array.
 */
#ifndef CABA_COMMON_EVENT_QUEUE_H
#define CABA_COMMON_EVENT_QUEUE_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/component.h"
#include "common/log.h"
#include "common/types.h"

namespace caba {

/** Flat per-id wake times with an exact running minimum. */
class EventQueue
{
  public:
    explicit EventQueue(int ids = 0) { reset(ids); }

    /** Parks every id and resizes the id space to [0, @p ids). */
    void
    reset(int ids)
    {
        CABA_CHECK(ids >= 0, "negative id space");
        when_.assign(static_cast<std::size_t>(ids), kNoWork);
        min_ = kNoWork;
        fold_ = kNoWork;
        next_ = ids;
    }

    int size() const { return static_cast<int>(when_.size()); }

    /** Wake time of @p id (kNoWork = never). */
    Cycle
    when(int id) const
    {
        return when_[static_cast<std::size_t>(id)];
    }

    /** True when @p id wants to run at @p now. */
    bool due(int id, Cycle now) const { return when(id) <= now; }

    /** Earliest wake time over all ids (kNoWork when all are parked). */
    Cycle minTime() const { return min_; }

    /** Ids with a wake time, i.e. not parked (trace introspection). */
    int
    awake() const
    {
        return static_cast<int>(
            std::count_if(when_.begin(), when_.end(),
                          [](Cycle c) { return c != kNoWork; }));
    }

    /** Moves @p id's wake earlier to @p at; a later @p at is a no-op.
     *  Allowed inside a pass, before or after the id's visit. */
    void
    wake(int id, Cycle at)
    {
        Cycle &w = when_[static_cast<std::size_t>(id)];
        if (at >= w)
            return;
        w = at;
        min_ = std::min(min_, at);
        if (id < next_)             // already folded this pass
            fold_ = std::min(fold_, at);
    }

    // -- pass: visit every id once, in increasing id order, through
    //    keep() or reschedule(); endPass() publishes the folded minimum.

    void
    beginPass()
    {
        fold_ = kNoWork;
        next_ = 0;
    }

    /** Visits @p id without changing its wake time. */
    void
    keep(int id)
    {
        fold_ = std::min(fold_, when(id));
        next_ = id + 1;
    }

    /** Visits @p id and sets its wake time to @p at (kNoWork parks). */
    void
    reschedule(int id, Cycle at)
    {
        when_[static_cast<std::size_t>(id)] = at;
        fold_ = std::min(fold_, at);
        next_ = id + 1;
    }

    void
    endPass()
    {
        min_ = fold_;
    }

  private:
    std::vector<Cycle> when_;   ///< Wake time per id.
    Cycle min_ = kNoWork;       ///< min(when_) outside a pass.
    Cycle fold_ = kNoWork;      ///< min over the ids visited this pass.
    int next_ = 0;              ///< First id not yet visited this pass.
};

} // namespace caba

#endif // CABA_COMMON_EVENT_QUEUE_H
