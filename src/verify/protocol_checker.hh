/**
 * @file
 * Protocol invariant checker: shadows the stash-extended DeNovo
 * protocol against a functional golden memory.
 *
 * The checker maintains a word-granularity golden image updated at
 * every store commit point (L1 store, coherent stash store, a ChgMap
 * non-coherent-to-coherent conversion, DMA store injection) and
 * verifies, at every drain point (phase boundaries — the protocol's
 * data-race-free synchronization points) and at selected transitions,
 * the DeNovo invariants:
 *
 *  - at most one Registered copy of any word system-wide (checked at
 *    drain: DeNovo's optimistic registration legally allows two
 *    transient Registered copies while an InvReq is in flight);
 *  - the LLC directory entry of a Registered word names the actual
 *    registrant (core and unit; the stash-map index hint may legally
 *    go stale and is excluded), and every privately Registered word
 *    is Registered at the directory for that owner;
 *  - readable words match golden data wherever freshness is provable
 *    at a drain: LLC-Valid directory words and privately Registered
 *    words.  Private *Valid* copies are exempt — a reader's stale
 *    Valid copy before its next self-invalidation is exactly the
 *    staleness DeNovo permits;
 *  - demanded fill data matches golden (only the demanded words: an
 *    opportunistic whole-line fill may carry words whose registration
 *    is still in flight);
 *  - a stash-map entry's #DirtyData equals its dirty/writeback chunk
 *    count, never underflows, and Registered stash words are always
 *    reachable through a live coherent mapping;
 *  - self-invalidation never kills a Registered word.
 *
 * Words written through non-coherent stash mappings become "opaque"
 * (excluded from data checks) until a coherent store makes them
 * globally visible again.  Words never stored through the modelled
 * protocol (workload init data) are adopted into the golden image at
 * their first demanded fill.
 *
 * On violation the checker dumps every finding plus the registered
 * diagnostic hooks and throws via fatal(), naming the offending word
 * and parties in the exception text so tests can assert on it.
 */

#ifndef STASHSIM_VERIFY_PROTOCOL_CHECKER_HH
#define STASHSIM_VERIFY_PROTOCOL_CHECKER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/coherence/denovo.hh"
#include "sim/types.hh"

namespace stashsim
{

class L1Cache;
class LlcBank;
class MainMemory;
class SnapshotReader;
class SnapshotWriter;
class Stash;

/**
 * The golden-memory protocol checker.
 */
class ProtocolChecker
{
  public:
    ProtocolChecker();
    ~ProtocolChecker();

    ProtocolChecker(const ProtocolChecker &) = delete;
    ProtocolChecker &operator=(const ProtocolChecker &) = delete;

    /** @{ Topology registration (System wires these at build time). */
    void addL1(CoreId core, const L1Cache *l1);
    void addStash(CoreId core, const Stash *stash);
    void addLlc(const LlcBank *llc);
    /** @} */

    /** @{ Transition hooks called by the instrumented components. */

    /** A store to @p pa committed with @p value (globally visible). */
    void onStore(PhysAddr pa, std::uint32_t value);

    /** A non-coherent stash store hid @p pa from the global image. */
    void onOpaqueStore(PhysAddr pa);

    /**
     * A *demanded* word arrived at @p unit of core @p core.  Fails
     * immediately on a golden mismatch; adopts untracked words.
     */
    void onFill(const char *unit, CoreId core, PhysAddr pa,
                std::uint32_t value);

    /**
     * Unit @p unit of core @p core self-invalidated a word (at
     * @p addr; a PA for L1s, a stash word index for stashes) whose
     * prior state was @p prior.  Fails if @p prior was Registered.
     */
    void onSelfInvalidate(const char *unit, CoreId core,
                          std::uint64_t addr, WordState prior);

    /** A #DirtyData counter of @p core's entry @p idx hit zero while
     *  a dirty chunk still charged it.  Fails immediately. */
    void onDirtyDataUnderflow(CoreId core, unsigned idx);

    /** @} */

    /**
     * Drain-point audit of every registered component (see file
     * comment).  Throws via fatal() when violations are found.
     */
    void audit(const char *when);

    /**
     * End-of-run check: every tracked (non-opaque) golden word must
     * match the flushed memory image.
     */
    void checkFinalMemory(const MainMemory &mem);

    /** @{ Introspection for tests. */
    std::size_t trackedWords() const { return golden.size(); }
    std::uint64_t storesSeen() const { return _storesSeen; }
    std::uint64_t fillsChecked() const { return _fillsChecked; }
    std::uint64_t auditsRun() const { return _auditsRun; }
    const std::vector<std::string> &violationLog() const
    {
        return violations;
    }
    /** @} */

    /**
     * Serializes the golden image, opaque set, and counters (sorted,
     * so the section is canonical).  The violation log is not
     * serialized: a violation is fatal, so a checkpoint can only
     * exist with an empty log.
     */
    void snapshot(SnapshotWriter &w) const;

    /** Restores the golden image from a checkpoint. */
    void restore(SnapshotReader &r);

  private:
    void violation(std::string what);
    [[noreturn]] void fail(const char *context);

    struct PrivateUnit
    {
        CoreId core;
        const L1Cache *l1 = nullptr; //!< exactly one of l1/stash set
        const Stash *stash = nullptr;
    };

    std::vector<PrivateUnit> units;
    std::vector<const LlcBank *> llcs;

    /** Golden word image: PA -> last committed store value. */
    std::unordered_map<PhysAddr, std::uint32_t> golden;
    /** PAs currently hidden behind non-coherent mappings. */
    std::unordered_set<PhysAddr> opaque;

    std::vector<std::string> violations;
    std::uint64_t _storesSeen = 0;
    std::uint64_t _fillsChecked = 0;
    std::uint64_t _auditsRun = 0;
    std::size_t hookId = 0;
};

} // namespace stashsim

#endif // STASHSIM_VERIFY_PROTOCOL_CHECKER_HH
