/**
 * @file
 * Open-addressed hash map from a 64-bit key (a line address) to a small
 * value, for per-access bookkeeping on the hot path (the LDST unit's
 * MSHRs). Linear probing over a power-of-two slot array kept at most
 * half full, Fibonacci hashing, and backward-shift deletion (no
 * tombstones, so probe runs never degrade under churn).
 *
 * Nothing is allocated until the first insert; the slot array doubles
 * when it would pass half full.
 */
#ifndef CABA_COMMON_FLAT_MAP_H
#define CABA_COMMON_FLAT_MAP_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/log.h"

namespace caba {

template <typename V>
class FlatMap
{
  public:
    /** @p expected sizes the first allocation: that many keys fit
     *  before the slot array doubles. */
    explicit FlatMap(std::size_t expected = 8)
    {
        while (first_slots_ < 2 * expected)
            first_slots_ *= 2;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slot array length (0 before the first insert). */
    std::size_t slotCount() const { return slots_.size(); }

    /** Value of @p key, or nullptr when absent. */
    V *
    find(std::uint64_t key)
    {
        if (slots_.empty())
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            Slot &s = slots_[i];
            if (!s.used)
                return nullptr;
            if (s.key == key)
                return &s.value;
        }
    }

    /** Adds the absent @p key with the value V{} and returns it. */
    V &
    insert(std::uint64_t key)
    {
        if (2 * (size_ + 1) > slots_.size())
            grow();
        std::size_t i = home(key);
        for (; slots_[i].used; i = (i + 1) & mask_)
            CABA_CHECK(slots_[i].key != key, "FlatMap: duplicate key");
        Slot &s = slots_[i];
        s.used = true;
        s.key = key;
        s.value = V{};
        ++size_;
        return s.value;
    }

    /** Removes the present @p key; later keys of its probe run shift
     *  back into the hole. */
    void
    erase(std::uint64_t key)
    {
        CABA_CHECK(size_ > 0, "FlatMap: erase from an empty map");
        std::size_t i = home(key);
        while (true) {
            CABA_CHECK(slots_[i].used, "FlatMap: erase of an absent key");
            if (slots_[i].key == key)
                break;
            i = (i + 1) & mask_;
        }
        slots_[i].used = false;
        for (std::size_t j = (i + 1) & mask_; slots_[j].used;
             j = (j + 1) & mask_) {
            // Slot j may fill the hole at i when i lies on its probe
            // path, i.e. cyclically within [home, j).
            const std::size_t h = home(slots_[j].key);
            if (((j - h) & mask_) >= ((j - i) & mask_)) {
                std::swap(slots_[i], slots_[j]);
                i = j;
            }
        }
        --size_;
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        bool used = false;
        V value{};
    };

    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    void
    grow()
    {
        const std::size_t n =
            slots_.empty() ? first_slots_ : 2 * slots_.size();
        std::vector<Slot> old(n);
        old.swap(slots_);
        mask_ = n - 1;
        shift_ = 64;
        for (std::size_t m = n; m > 1; m >>= 1)
            --shift_;
        for (Slot &s : old) {
            if (!s.used)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].used)
                i = (i + 1) & mask_;
            slots_[i] = std::move(s);
        }
    }

    std::vector<Slot> slots_;
    std::size_t first_slots_ = 2;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace caba

#endif // CABA_COMMON_FLAT_MAP_H
