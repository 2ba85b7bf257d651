/**
 * @file
 * Integration tests for the L1 <-> LLC DeNovo protocol: registration,
 * forwarding, invalidation, writeback, self-invalidation, and
 * eviction behaviour; the order in which the L1 wait list lets parked
 * accesses proceed and how misses take MSHR slots; plus randomized property tests against a
 * sequential reference under data-race-free access patterns.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/llc.hh"
#include "mem/main_memory.hh"
#include "mem/page_table.hh"
#include "mem/tlb.hh"
#include "noc/mesh.hh"

namespace stashsim
{
namespace
{

/**
 * A small coherent system: N L1 caches (cores 0..N-1 at nodes
 * 0..N-1) over 16 LLC banks on a 4x4 mesh.
 */
class CoherenceBench : public ::testing::Test
{
  protected:
    static constexpr unsigned numCaches = 4;

    void
    SetUp() override
    {
        mesh = std::make_unique<Mesh>(eq, MeshParams{});
        fabric = std::make_unique<Fabric>(*mesh);

        LlcBank::Params lp;
        for (NodeId n = 0; n < 16; ++n) {
            backends.push_back(makeMemBackend(MemBackendConfig{}, eq,
                                              mem, gpuClockPeriod));
            llc.push_back(std::make_unique<LlcBank>(
                eq, *fabric, *backends.back(), n, lp));
            fabric->registerObject(n, Unit::Llc, llc.back().get());
        }
        for (CoreId c = 0; c < numCaches; ++c)
            addCache(l1Params());
    }

    /** Geometry of the numCaches L1s that SetUp builds. */
    virtual L1Cache::Params l1Params() const { return {}; }

    /** Adds an L1, with its own TLB, as the next core at its node. */
    L1Cache &
    addCache(const L1Cache::Params &p)
    {
        const CoreId c = CoreId(caches.size());
        tlbs.push_back(std::make_unique<Tlb>(pageTable));
        caches.push_back(std::make_unique<L1Cache>(
            eq, *fabric, *tlbs.back(), c, NodeId(c), p));
        fabric->registerObject(NodeId(c), Unit::L1, caches.back().get());
        fabric->registerCore(c, NodeId(c));
        return *caches.back();
    }

    /** Blocking word load through cache @p c. */
    std::uint32_t
    load(unsigned c, Addr va)
    {
        std::uint32_t result = 0;
        bool done = false;
        caches[c]->access(lineBase(va), wordBit(lineWord(va)), false,
                          nullptr, [&](const LineData &d) {
                              result = d.w[lineWord(va)];
                              done = true;
                          });
        eq.run();
        EXPECT_TRUE(done);
        return result;
    }

    /** Blocking word store through cache @p c. */
    void
    store(unsigned c, Addr va, std::uint32_t value)
    {
        LineData d;
        d.w[lineWord(va)] = value;
        bool done = false;
        caches[c]->access(lineBase(va), wordBit(lineWord(va)), true,
                          &d, [&](const LineData &) { done = true; });
        eq.run();
        EXPECT_TRUE(done);
    }

    /** Registry owner of @p va, from the responsible LLC bank. */
    CoreId
    ownerOf(Addr va)
    {
        const PhysAddr pa = pageTable.translate(va);
        return llc[(pa / lineBytes) % 16]->ownerOf(pa);
    }

    EventQueue eq;
    MainMemory mem;
    PageTable pageTable;
    std::unique_ptr<Mesh> mesh;
    std::unique_ptr<Fabric> fabric;
    std::vector<std::unique_ptr<MemBackend>> backends;
    std::vector<std::unique_ptr<LlcBank>> llc;
    std::vector<std::unique_ptr<Tlb>> tlbs;
    std::vector<std::unique_ptr<L1Cache>> caches;
};

constexpr Addr base = 0x100000;

TEST_F(CoherenceBench, ColdLoadFetchesFromMemory)
{
    mem.writeWord(pageTable.translate(base), 42);
    EXPECT_EQ(load(0, base), 42u);
    EXPECT_EQ(caches[0]->stats().loadMisses, 1u);
    EXPECT_EQ(caches[0]->stats().loadHits, 0u);
}

TEST_F(CoherenceBench, SecondLoadHits)
{
    load(0, base);
    load(0, base);
    EXPECT_EQ(caches[0]->stats().loadHits, 1u);
}

TEST_F(CoherenceBench, LineFillServesNeighboringWords)
{
    // A cache fill brings the whole line, so another word of the
    // same line hits (line-granularity transfer, word-granularity
    // state).
    load(0, base);
    load(0, base + 24);
    EXPECT_EQ(caches[0]->stats().loadMisses, 1u);
    EXPECT_EQ(caches[0]->stats().loadHits, 1u);
}

TEST_F(CoherenceBench, StoreRegistersAtDirectory)
{
    store(0, base, 7);
    EXPECT_EQ(ownerOf(base), 0u);
    EXPECT_EQ(caches[0]->probe(base), WordState::Registered);
}

TEST_F(CoherenceBench, StoreToRegisteredWordHits)
{
    store(0, base, 7);
    store(0, base, 8);
    EXPECT_EQ(caches[0]->stats().storeMisses, 1u);
    EXPECT_EQ(caches[0]->stats().storeHits, 1u);
}

TEST_F(CoherenceBench, RemoteLoadForwardedToOwner)
{
    store(0, base, 99);
    EXPECT_EQ(load(1, base), 99u);
    EXPECT_EQ(caches[0]->stats().remoteHits, 1u);
    // The owner keeps its registration; the reader gets a Valid copy.
    EXPECT_EQ(ownerOf(base), 0u);
    EXPECT_EQ(caches[1]->probe(base), WordState::Valid);
}

TEST_F(CoherenceBench, RegistrationTransferInvalidatesOldOwner)
{
    store(0, base, 1);
    store(1, base, 2);
    eq.run();
    EXPECT_EQ(ownerOf(base), 1u);
    EXPECT_EQ(caches[0]->probe(base), WordState::Invalid);
    EXPECT_EQ(load(2, base), 2u);
}

TEST_F(CoherenceBench, WordGranularityOwnership)
{
    // Different cores own different words of the same line — no
    // false sharing (the DeNovo advantage over MESI).
    store(0, base, 10);
    store(1, base + 4, 11);
    store(2, base + 8, 12);
    EXPECT_EQ(ownerOf(base), 0u);
    EXPECT_EQ(ownerOf(base + 4), 1u);
    EXPECT_EQ(ownerOf(base + 8), 2u);
    EXPECT_EQ(load(3, base), 10u);
    EXPECT_EQ(load(3, base + 4), 11u);
    EXPECT_EQ(load(3, base + 8), 12u);
}

TEST_F(CoherenceBench, SelfInvalidationDropsValidKeepsRegistered)
{
    store(0, base, 5);     // registered
    load(0, base + 4);     // valid (from fill)
    caches[0]->selfInvalidate();
    EXPECT_EQ(caches[0]->probe(base), WordState::Registered);
    EXPECT_EQ(caches[0]->probe(base + 4), WordState::Invalid);
}

TEST_F(CoherenceBench, FlushWritesBackRegisteredWords)
{
    store(0, base, 123);
    caches[0]->flushAll();
    eq.run();
    EXPECT_EQ(ownerOf(base), invalidCore);
    llc[(pageTable.translate(base) / lineBytes) % 16]
        ->flushDirtyToMemory();
    EXPECT_EQ(mem.readWord(pageTable.translate(base)), 123u);
}

TEST_F(CoherenceBench, EvictionWritesBackAndDataSurvives)
{
    // Touch enough distinct lines mapping to one set to force
    // evictions (32 KB, 8-way: 64 sets; lines 64*64B apart collide).
    const Addr stride = 64 * lineBytes;
    for (unsigned i = 0; i < 12; ++i)
        store(0, base + i * stride, 1000 + i);
    EXPECT_GT(caches[0]->stats().evictions, 0u);
    for (unsigned i = 0; i < 12; ++i)
        EXPECT_EQ(load(1, base + i * stride), 1000 + i);
}

TEST_F(CoherenceBench, ProducerConsumerThroughPhases)
{
    // GPU-style phase pattern: core 0 produces, core 1 consumes
    // after a self-invalidation, then produces new values consumed
    // by core 0.
    for (unsigned i = 0; i < 32; ++i)
        store(0, base + i * 4, i);
    caches[1]->selfInvalidate();
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(load(1, base + i * 4), i);
    for (unsigned i = 0; i < 32; ++i)
        store(1, base + i * 4, 100 + i);
    caches[0]->selfInvalidate();
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(load(0, base + i * 4), 100 + i);
}

/**
 * The L1 wait list.  Each test adds a small L1 as core 4 (node 4) and
 * submits a burst of non-blocking accesses, so some of them park.
 * Lines at page offset k * 64 fall in set k % 8 of a 1 KB 2-way L1,
 * and in LLC bank k % 16 at node k % 16.
 */
class L1WaitList : public CoherenceBench
{
  protected:
    struct Completion
    {
        char name;
        Tick tick;
        Counter loadMisses; //!< loads that had proceeded by then
        std::uint32_t value;
    };

    static L1Cache::Params
    tiny(unsigned mshrs)
    {
        L1Cache::Params p;
        p.bytes = 1024;
        p.assoc = 2;
        p.mshrs = mshrs;
        return p;
    }

    /** Non-blocking one-word access; completion is logged. */
    void
    submit(L1Cache &l1, char name, Addr va, bool is_store = false)
    {
        LineData d;
        d.w[lineWord(va)] = 0x5000 + std::uint32_t(name);
        l1.access(lineBase(va), wordBit(lineWord(va)), is_store,
                  is_store ? &d : nullptr,
                  [this, &l1, name, va](const LineData &got) {
                      log.push_back(Completion{name, eq.curTick(),
                                               l1.stats().loadMisses,
                                               got.w[lineWord(va)]});
                  });
    }

    const Completion &
    at(char name) const
    {
        for (const Completion &c : log) {
            if (c.name == name)
                return c;
        }
        ADD_FAILURE() << name << " never completed";
        static const Completion never{};
        return never;
    }

    std::string
    order() const
    {
        std::string o;
        for (const Completion &c : log)
            o += c.name;
        return o;
    }

    std::vector<Completion> log;
};

TEST_F(L1WaitList, MshrWaitersProceedOneReleaseAtATimeInArrivalOrder)
{
    L1Cache &l1 = addCache(tiny(2));
    // Four lines in four sets and banks 0..3, each farther from node
    // 4 than the last.
    submit(l1, 'a', base);
    submit(l1, 'b', base + 64);
    submit(l1, 'c', base + 128);
    submit(l1, 'd', base + 192);
    EXPECT_EQ(l1.stats().loadMisses, 2u) << "c and d wait for an MSHR";
    eq.run();

    ASSERT_EQ(order(), "abcd");
    // Each release lets exactly the oldest waiter proceed.
    EXPECT_EQ(at('a').loadMisses, 3u);
    EXPECT_EQ(at('b').loadMisses, 4u);
    EXPECT_GT(at('c').tick, at('a').tick);
    EXPECT_GT(at('d').tick, at('b').tick);
    EXPECT_GT(at('d').tick, at('c').tick);
}

TEST_F(L1WaitList, StoreToPinnedSetWaitsForAReleaseInThatSet)
{
    L1Cache &l1 = addCache(tiny(4));
    const Addr a = base, b = base + 512; // set 0: both ways
    const Addr c = base + 64;            // set 1
    const Addr d = base + 1024;          // set 0
    load(1, c); // c's line now hits in the LLC, so it releases first
    submit(l1, 'a', a);
    submit(l1, 'b', b);
    submit(l1, 'c', c);
    submit(l1, 'd', d, true);
    EXPECT_EQ(l1.stats().storeMisses, 0u) << "every way of set 0 pinned";
    eq.run();

    ASSERT_EQ(order().size(), 4u);
    EXPECT_EQ(order().front(), 'c');
    // The release in set 1 did not let d proceed; the first release
    // in set 0 did, in the same tick.
    const Tick first_set0 = std::min(at('a').tick, at('b').tick);
    EXPECT_GT(first_set0, at('c').tick);
    EXPECT_EQ(at('d').tick, first_set0);
    EXPECT_EQ(l1.stats().storeMisses, 1u);
    EXPECT_EQ(l1.probe(d), WordState::Registered);
}

TEST_F(L1WaitList, ParkedLoadProceedsOnceAStoreMakesItsLineResident)
{
    L1Cache &l1 = addCache(tiny(1));
    mem.writeWord(pageTable.translate(base + 128), 77);
    submit(l1, 'a', base);       // takes the only MSHR
    submit(l1, 'y', base + 64);  // waits for an MSHR
    submit(l1, 'x', base + 128); // waits for an MSHR
    submit(l1, 's', base + 132, true); // allocates x's line
    EXPECT_EQ(l1.stats().loadMisses, 1u);
    EXPECT_EQ(l1.stats().storeMisses, 1u);
    eq.run();

    // a's release lets y take the MSHR and, because its line is now
    // resident, x proceed too without one.
    EXPECT_EQ(at('a').loadMisses, 3u);
    EXPECT_EQ(at('x').value, 77u);
    EXPECT_EQ(l1.stats().loadMisses, 3u);
}

TEST_F(L1WaitList, SetWokenLoadThatFindsMshrsFullKeepsItsPlace)
{
    L1Cache &l1 = addCache(tiny(3));
    const Addr a = base, b = base + 512;      // set 0, LLC hits
    const Addr w0 = base + 1024, w1 = base + 1536; // set 0
    const Addr c = base + 64, n = base + 128;      // sets 1 and 2
    load(1, a);
    load(1, b);
    submit(l1, 'a', a);
    submit(l1, 'b', b);
    submit(l1, '0', w0); // set 0 pinned: waits for a way
    submit(l1, '1', w1); // likewise
    submit(l1, 'c', c);  // takes the last MSHR
    submit(l1, 'n', n);  // waits for an MSHR
    EXPECT_EQ(l1.stats().loadMisses, 3u);
    eq.run();

    ASSERT_EQ(order().size(), 6u);
    // The first release in set 0 wakes w0 and w1: w0 takes the MSHR,
    // so w1 finds none free and waits for an MSHR, ahead of n.  The
    // second release in set 0 then lets w1 proceed, not n.
    const Completion &first = at('a').tick <= at('b').tick ? at('a') : at('b');
    const Completion &second = at('a').tick <= at('b').tick ? at('b') : at('a');
    EXPECT_EQ(first.loadMisses, 4u);
    EXPECT_EQ(second.loadMisses, 5u);
    EXPECT_LT(second.tick, at('c').tick);
    EXPECT_LT(at('1').tick, at('n').tick);
    EXPECT_GT(at('n').tick, at('c').tick);
}

TEST_F(L1WaitList, ParkedAccessesAreTranslatedOnce)
{
    L1Cache &l1 = addCache(tiny(2));
    // 24 loads and 8 stores to 32 lines of set 0: the loads wait for
    // an MSHR, the stores for a way, and the stores are woken more
    // than once.
    constexpr unsigned accesses = 32;
    for (unsigned k = 0; k < accesses; ++k)
        submit(l1, char('A' + k), base + Addr(k) * 512, k % 4 == 3);
    EXPECT_EQ(l1.stats().loadMisses, 2u);
    EXPECT_EQ(l1.stats().storeMisses, 0u);
    eq.run();
    EXPECT_EQ(log.size(), accesses);
    EXPECT_EQ(tlbs.back()->accesses(), accesses);
}

TEST_F(L1WaitList, LoadMissOnAResidentUnpinnedLineTakesAnMshrPastTheLimit)
{
    L1Cache &l1 = addCache(tiny(1));
    mem.writeWord(pageTable.translate(base + 68), 88);
    submit(l1, 's', base + 64, true); // line 1 resident, not pinned
    eq.run();
    submit(l1, 'a', base);      // takes the only MSHR
    submit(l1, 'r', base + 68); // misses word 1 of the resident line
    EXPECT_EQ(l1.stats().loadMisses, 2u)
        << "r took a second MSHR instead of waiting for one";
    eq.run();
    EXPECT_EQ(at('r').value, 88u);
    EXPECT_EQ(order().size(), 3u);
}

TEST_F(L1WaitList, ReleasedMshrIsReusedWithNoWordsRequested)
{
    L1Cache &l1 = addCache(tiny(1));
    mem.writeWord(pageTable.translate(base + 64), 9);
    // Word 0 of line 0, then word 0 of line 1, through the one MSHR:
    // line 1's miss must ask for word 0 although the slot's last
    // miss already had.
    submit(l1, 'a', base);
    eq.run();
    submit(l1, 'b', base + 64);
    eq.run();
    EXPECT_EQ(order(), "ab");
    EXPECT_EQ(at('b').value, 9u);
    EXPECT_EQ(l1.stats().loadMisses, 2u);
}

/** One randomized traffic run: its seed and its L1s. */
struct Traffic
{
    unsigned seed;
    /**
     * 1 KB, 2-way L1s with 2 MSHRs, driven by non-blocking bursts
     * over 16 lines in two sets, so accesses park and wake for every
     * reason.  Otherwise default L1s and one access at a time.
     */
    bool tinyL1;
};

/** Names each instance by its seed. */
void
PrintTo(const Traffic &t, std::ostream *os)
{
    *os << t.seed;
}

/**
 * Property: a randomized, data-race-free workload (each word has one
 * writer per phase; readers read only after a phase change) matches
 * a sequential reference model.
 */
class CoherenceProperty : public CoherenceBench,
                          public ::testing::WithParamInterface<Traffic>
{
  protected:
    L1Cache::Params
    l1Params() const override
    {
        L1Cache::Params p;
        if (GetParam().tinyL1) {
            p.bytes = 1024;
            p.assoc = 2;
            p.mshrs = 2;
        }
        return p;
    }
};

TEST_P(CoherenceProperty, RandomDrfTrafficMatchesReference)
{
    const bool bursts = GetParam().tinyL1;
    std::uint64_t seed = GetParam().seed;
    auto rng = [&seed]() {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        return unsigned(seed >> 33);
    };

    constexpr unsigned num_words = 64;
    std::vector<std::uint32_t> ref(num_words, 0);
    // Bursts put four words on each of 16 lines, 256 bytes apart:
    // sets 0 and 4 of the tiny L1, eight lines each.
    auto addr = [bursts](unsigned w) {
        return bursts ? base + Addr(w / 4) * 256 + Addr(w % 4) * 4
                      : base + Addr(w) * 4;
    };

    // A burst's loads, checked once the queue drains.
    struct Read
    {
        unsigned word;
        std::uint32_t want;
        std::uint32_t got = 0;
        bool done = false;
    };
    std::vector<Read> reads;
    unsigned stores_done = 0, stores_sent = 0;
    auto submit_load = [&](unsigned reader, unsigned w) {
        reads.push_back(Read{w, ref[w]});
        const Addr va = addr(w);
        caches[reader]->access(
            lineBase(va), wordBit(lineWord(va)), false, nullptr,
            [&reads, i = reads.size() - 1, va](const LineData &d) {
                reads[i].got = d.w[lineWord(va)];
                reads[i].done = true;
            });
    };
    auto check_reads = [&](unsigned phase) {
        eq.run();
        EXPECT_EQ(stores_done, stores_sent) << "phase " << phase;
        for (const Read &r : reads) {
            EXPECT_TRUE(r.done) << "phase " << phase << " word " << r.word;
            EXPECT_EQ(r.got, r.want)
                << "phase " << phase << " word " << r.word;
        }
        reads.clear();
    };

    for (unsigned phase = 0; phase < 6; ++phase) {
        // Each phase: every word is written by one pseudo-random
        // core; then everyone self-invalidates; then random cores
        // read random words and must see the latest values.  Bursts
        // also read, alongside the stores, words this phase leaves
        // alone.
        for (unsigned w = 0; w < num_words; ++w) {
            if (rng() % 3 == 0) {
                const unsigned writer = rng() % numCaches;
                const std::uint32_t val = rng();
                if (bursts) {
                    LineData d;
                    d.w[lineWord(addr(w))] = val;
                    ++stores_sent;
                    caches[writer]->access(
                        lineBase(addr(w)), wordBit(lineWord(addr(w))),
                        true, &d,
                        [&stores_done](const LineData &) {
                            ++stores_done;
                        });
                } else {
                    store(writer, addr(w), val);
                }
                ref[w] = val;
            } else if (bursts && rng() % 2 == 0) {
                submit_load(rng() % numCaches, w);
            }
        }
        if (bursts)
            check_reads(phase);
        for (auto &c : caches)
            c->selfInvalidate();
        for (unsigned r = 0; r < 48; ++r) {
            const unsigned w = rng() % num_words;
            const unsigned reader = rng() % numCaches;
            if (bursts) {
                submit_load(reader, w);
            } else {
                ASSERT_EQ(load(reader, addr(w)), ref[w])
                    << "phase " << phase << " word " << w;
            }
        }
        if (bursts)
            check_reads(phase);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoherenceProperty,
                         ::testing::Values(Traffic{1, false},
                                           Traffic{2, false},
                                           Traffic{3, false},
                                           Traffic{17, false},
                                           Traffic{99, false}));

INSTANTIATE_TEST_SUITE_P(TinyL1Bursts, CoherenceProperty,
                         ::testing::Values(Traffic{1, true},
                                           Traffic{2, true},
                                           Traffic{3, true},
                                           Traffic{17, true},
                                           Traffic{99, true}));

} // namespace
} // namespace stashsim
