/**
 * @file
 * GroupByKey against a std::map reference: the coalescer, stash and
 * LLC rely on it visiting keys in std::map order with the same merged
 * masks, and on each key's payloads keeping their insertion order.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "mem/group_by_key.hh"

namespace stashsim
{
namespace
{

struct Visit
{
    std::uint64_t key = 0;
    WordMask mask = 0;
    std::vector<unsigned> payloads;

    bool operator==(const Visit &) const = default;
};

/** Adds @p n seeded random records and checks every visit. */
void
checkAgainstMap(unsigned seed, unsigned n, std::uint64_t key_range)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::uint64_t> key(0, key_range - 1);
    std::uniform_int_distribution<unsigned> word(0, wordsPerLine - 1);

    GroupByKey<std::uint64_t, unsigned> groups;
    std::map<std::uint64_t, Visit> reference;
    for (unsigned i = 0; i < n; ++i) {
        const std::uint64_t k = key(rng) * lineBytes;
        const WordMask bit = wordBit(word(rng));
        groups.add(k, bit, i);
        Visit &v = reference[k];
        v.key = k;
        v.mask |= bit;
        v.payloads.push_back(i);
    }

    std::vector<Visit> expected;
    for (const auto &[k, v] : reference)
        expected.push_back(v);
    // The stash and the coalescer visit twice; both visits must agree.
    for (int visit = 0; visit < 2; ++visit) {
        std::vector<Visit> got;
        groups.forEach([&](std::uint64_t k, WordMask mask, auto records) {
            Visit v{k, mask, {}};
            for (const auto &r : records)
                v.payloads.push_back(r.payload);
            got.push_back(std::move(v));
        });
        EXPECT_EQ(got, expected) << "seed " << seed << ", " << n
                                 << " records over " << key_range
                                 << " keys, visit " << visit;
    }
}

TEST(GroupByKeyTest, MatchesStdMapOnSeededRandomKeys)
{
    // Record counts below, at and past the inline capacity (32, so
    // the spill path runs), over few keys (many merges) and many.
    for (unsigned n : {0u, 1u, 5u, 32u, 33u, 64u, 300u}) {
        for (std::uint64_t range : {3ull, 40ull, 1ull << 40}) {
            for (unsigned seed = 1; seed <= 5; ++seed)
                checkAgainstMap(seed * 7919 + n, n, range);
        }
    }
}

TEST(GroupByKeyTest, CompositeKeysVisitInLexicographicOrder)
{
    // The LLC's directory key shape: (owner, isStash, map index).
    using Key = std::tuple<unsigned, bool, unsigned>;
    GroupByKey<Key> groups;
    groups.add({2, false, 0}, wordBit(0));
    groups.add({1, true, 3}, wordBit(1));
    groups.add({1, false, 9}, wordBit(2));
    groups.add({1, true, 3}, wordBit(3));
    std::vector<std::pair<Key, WordMask>> got;
    groups.forEach([&](const Key &k, WordMask mask, auto) {
        got.emplace_back(k, mask);
    });
    const std::vector<std::pair<Key, WordMask>> want = {
        {{1, false, 9}, wordBit(2)},
        {{1, true, 3}, WordMask(wordBit(1) | wordBit(3))},
        {{2, false, 0}, wordBit(0)},
    };
    EXPECT_EQ(got, want);
}

} // namespace
} // namespace stashsim
