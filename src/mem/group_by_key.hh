/**
 * @file
 * GroupByKey: word-masked records grouped by key, for the CU coalescer
 * (lanes by line), the stash (words by line) and the LLC directory
 * (words by owner), which send one message per key.  Keys are visited
 * in std::map order, since message order fixes the event order.  The
 * first 32 records (a warp's lanes, two lines' words) live in the
 * object, more on the heap; sorting by (key, insertion order) keeps
 * each key's payloads in order.  The records are sorted once, however
 * often they are visited.
 */

#ifndef STASHSIM_MEM_GROUP_BY_KEY_HH
#define STASHSIM_MEM_GROUP_BY_KEY_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "mem/line.hh"

namespace stashsim
{

template <class Key, class Payload = std::monostate>
class GroupByKey
{
  public:
    struct Record
    {
        Key key;
        WordMask bits;
        std::uint32_t seq; //!< insertion order
        [[no_unique_address]] Payload payload;
    };

    void
    add(const Key &key, WordMask bits, const Payload &payload = {})
    {
        const Record rec{key, bits, std::uint32_t(n), payload};
        if (n == inlineRecords)
            spill.assign(local.begin(), local.end());
        if (n < inlineRecords)
            local[n] = rec;
        else
            spill.push_back(rec);
        ++n;
        sorted = false;
    }

    /**
     * Calls f(key, mask, records) once per distinct key, in ascending
     * key order: @p mask ORs the key's bits, and @p records (a
     * std::span) holds the key's records in insertion order.
     */
    template <class F>
    void
    forEach(F &&f)
    {
        Record *r = n <= inlineRecords ? local.data() : spill.data();
        if (!sorted) {
            std::sort(r, r + n, [](const Record &a, const Record &b) {
                return a.key < b.key ||
                       (!(b.key < a.key) && a.seq < b.seq);
            });
            sorted = true;
        }
        for (std::size_t i = 0, j = 0; i < n; i = j) {
            WordMask mask = 0;
            for (; j < n && !(r[i].key < r[j].key); ++j)
                mask |= r[j].bits;
            f(r[i].key, mask, std::span<const Record>(r + i, j - i));
        }
    }

  private:
    static constexpr std::size_t inlineRecords = 32;

    std::array<Record, inlineRecords> local;
    std::vector<Record> spill;
    std::size_t n = 0;
    bool sorted = true;
};

} // namespace stashsim

#endif // STASHSIM_MEM_GROUP_BY_KEY_HH
