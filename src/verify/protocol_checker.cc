#include "verify/protocol_checker.hh"

#include <iostream>
#include <sstream>

#include "core/stash.hh"
#include "mem/cache.hh"
#include "mem/llc.hh"
#include "mem/main_memory.hh"
#include "sim/log.hh"
#include "snapshot/snapshot.hh"

namespace stashsim
{

namespace
{

std::string
wordName(PhysAddr pa)
{
    std::ostringstream os;
    os << "pa=0x" << std::hex << pa << std::dec;
    return os.str();
}

} // namespace

ProtocolChecker::ProtocolChecker()
{
    hookId = registerDiagnosticHook([this]() {
        std::cerr << "--- protocol checker (" << golden.size()
                  << " tracked words, " << opaque.size() << " opaque, "
                  << _storesSeen << " stores, " << _fillsChecked
                  << " fills checked, " << _auditsRun << " audits) ---\n";
        for (const std::string &v : violations)
            std::cerr << "  violation: " << v << "\n";
        std::cerr.flush();
    });
}

ProtocolChecker::~ProtocolChecker()
{
    unregisterDiagnosticHook(hookId);
}

void
ProtocolChecker::addL1(CoreId core, const L1Cache *l1)
{
    units.push_back(PrivateUnit{core, l1, nullptr});
}

void
ProtocolChecker::addStash(CoreId core, const Stash *stash)
{
    units.push_back(PrivateUnit{core, nullptr, stash});
}

void
ProtocolChecker::addLlc(const LlcBank *llc)
{
    llcs.push_back(llc);
}

void
ProtocolChecker::violation(std::string what)
{
    violations.push_back(std::move(what));
}

void
ProtocolChecker::fail(const char *context)
{
    // fatal() flushes the diagnostic hooks (ours prints the full
    // violation list) before throwing; the exception text carries the
    // violations too, so callers and tests see the specifics even if
    // stderr is lost.
    std::ostringstream os;
    os << "protocol checker: " << violations.size()
       << " violation(s) at " << context << ":";
    for (const std::string &v : violations)
        os << "\n  " << v;
    fatal(os.str());
}

// ---------------------------------------------------------------------
// Transition hooks
// ---------------------------------------------------------------------

void
ProtocolChecker::onStore(PhysAddr pa, std::uint32_t value)
{
    ++_storesSeen;
    golden[pa] = value;
    opaque.erase(pa);
}

void
ProtocolChecker::onOpaqueStore(PhysAddr pa)
{
    golden.erase(pa);
    opaque.insert(pa);
}

void
ProtocolChecker::onFill(const char *unit, CoreId core, PhysAddr pa,
                        std::uint32_t value)
{
    if (opaque.count(pa))
        return;
    auto it = golden.find(pa);
    if (it == golden.end()) {
        // First sighting of workload-init data: adopt it.
        golden.emplace(pa, value);
        return;
    }
    ++_fillsChecked;
    if (it->second != value) {
        std::ostringstream os;
        os << "demanded fill data mismatch at " << wordName(pa) << ": "
           << unit << " of core " << core << " received 0x" << std::hex
           << value << ", golden holds 0x" << it->second << std::dec;
        violation(os.str());
        fail("fill");
    }
}

void
ProtocolChecker::onSelfInvalidate(const char *unit, CoreId core,
                                  std::uint64_t addr, WordState prior)
{
    if (prior != WordState::Registered)
        return;
    std::ostringstream os;
    os << "self-invalidation killed a Registered word: " << unit
       << " of core " << core << ", addr=0x" << std::hex << addr
       << std::dec;
    violation(os.str());
    fail("self-invalidate");
}

void
ProtocolChecker::onDirtyDataUnderflow(CoreId core, unsigned idx)
{
    std::ostringstream os;
    os << "#DirtyData underflow: stash of core " << core
       << ", map entry " << idx
       << " drained a dirty chunk with its counter already at zero";
    violation(os.str());
    fail("writeback");
}

// ---------------------------------------------------------------------
// Drain-point audit
// ---------------------------------------------------------------------

void
ProtocolChecker::audit(const char *when)
{
    ++_auditsRun;
    const std::size_t before = violations.size();

    // 1. Every private readable copy, by physical word.
    struct Holder
    {
        const char *unit;
        bool isStash;
        CoreId core;
        WordState st;
        std::uint32_t data;
    };
    std::unordered_map<PhysAddr, std::vector<Holder>> holders;
    for (const PrivateUnit &u : units) {
        if (u.l1) {
            u.l1->forEachWord([&](PhysAddr pa, WordState st,
                                  std::uint32_t d) {
                holders[pa].push_back(
                    Holder{"L1", false, u.core, st, d});
            });
        } else {
            u.stash->forEachMappedWord(
                [&](PhysAddr pa, WordState st, std::uint32_t d,
                    MapIndex) {
                    holders[pa].push_back(
                        Holder{"stash", true, u.core, st, d});
                });
        }
    }

    // 2. At most one Registered copy of a word system-wide, and every
    //    Registered copy holds golden data.
    for (const auto &[pa, hs] : holders) {
        const Holder *first_reg = nullptr;
        for (const Holder &h : hs) {
            if (h.st != WordState::Registered)
                continue;
            if (first_reg) {
                std::ostringstream os;
                os << "double registration of word " << wordName(pa)
                   << ": " << first_reg->unit << " of core "
                   << first_reg->core << " and " << h.unit
                   << " of core " << h.core
                   << " both hold it Registered";
                violation(os.str());
                continue;
            }
            first_reg = &h;
            auto g = golden.find(pa);
            if (g != golden.end() && !opaque.count(pa) &&
                g->second != h.data) {
                std::ostringstream os;
                os << "Registered copy of " << wordName(pa) << " at "
                   << h.unit << " of core " << h.core << " holds 0x"
                   << std::hex << h.data << ", golden holds 0x"
                   << g->second << std::dec;
                violation(os.str());
            }
        }
    }

    // 3. Directory sweep: a Registered directory word must point at
    //    an actual registrant; an LLC-Valid word is fresh by
    //    definition and must match golden.
    struct DirEntry
    {
        WordState st;
        CoreId owner;
        bool ownerIsStash;
    };
    std::unordered_map<PhysAddr, DirEntry> dir;
    for (const LlcBank *llc : llcs) {
        if (llc->pendingFillLines() > 0) {
            std::ostringstream os;
            os << "LLC bank still has " << llc->pendingFillLines()
               << " unresolved fill(s) after drain";
            violation(os.str());
        }
        llc->forEachDirectoryWord([&](PhysAddr pa, WordState st,
                                      std::uint32_t data, CoreId owner,
                                      bool owner_is_stash, unsigned) {
            dir[pa] = DirEntry{st, owner, owner_is_stash};
            if (st == WordState::Registered) {
                bool found = false;
                auto it = holders.find(pa);
                if (it != holders.end()) {
                    for (const Holder &h : it->second) {
                        if (h.st == WordState::Registered &&
                            h.core == owner &&
                            h.isStash == owner_is_stash) {
                            found = true;
                            break;
                        }
                    }
                }
                if (!found) {
                    std::ostringstream os;
                    os << "dangling directory registration of word "
                       << wordName(pa) << ": directory names "
                       << (owner_is_stash ? "stash" : "L1")
                       << " of core " << owner
                       << " but no such Registered copy exists";
                    violation(os.str());
                }
            } else if (st == WordState::Valid) {
                auto g = golden.find(pa);
                if (g != golden.end() && !opaque.count(pa) &&
                    g->second != data) {
                    std::ostringstream os;
                    os << "LLC-Valid word " << wordName(pa)
                       << " holds 0x" << std::hex << data
                       << ", golden holds 0x" << g->second << std::dec;
                    violation(os.str());
                }
            }
        });
    }

    // 4. Every privately Registered word is Registered at the
    //    directory for exactly that owner (the serialization truth).
    for (const auto &[pa, hs] : holders) {
        for (const Holder &h : hs) {
            if (h.st != WordState::Registered)
                continue;
            auto it = dir.find(pa);
            if (it == dir.end() ||
                it->second.st != WordState::Registered ||
                it->second.owner != h.core ||
                it->second.ownerIsStash != h.isStash) {
                std::ostringstream os;
                os << "orphan registration of word " << wordName(pa)
                   << ": " << h.unit << " of core " << h.core
                   << " holds it Registered but the directory ";
                if (it == dir.end()) {
                    os << "has no entry for it";
                } else if (it->second.st != WordState::Registered) {
                    os << "holds it " << wordStateName(it->second.st);
                } else {
                    os << "names "
                       << (it->second.ownerIsStash ? "stash" : "L1")
                       << " of core " << it->second.owner;
                }
                violation(os.str());
            }
        }
    }

    // 5. Per-stash bookkeeping (#DirtyData counts, orphan words).
    for (const PrivateUnit &u : units) {
        if (u.stash) {
            u.stash->auditAccounting(
                [this](const std::string &what) { violation(what); });
        }
    }

    if (violations.size() > before)
        fail(when);
}

void
ProtocolChecker::checkFinalMemory(const MainMemory &mem)
{
    const std::size_t before = violations.size();
    for (const auto &[pa, value] : golden) {
        if (opaque.count(pa))
            continue;
        const std::uint32_t got = mem.readWord(pa);
        if (got != value) {
            std::ostringstream os;
            os << "final memory mismatch at " << wordName(pa)
               << ": memory holds 0x" << std::hex << got
               << ", golden holds 0x" << value << std::dec;
            violation(os.str());
        }
    }
    if (violations.size() > before)
        fail("final memory check");
}

void
ProtocolChecker::snapshot(SnapshotWriter &w) const
{
    w.u64(_storesSeen);
    w.u64(_fillsChecked);
    w.u64(_auditsRun);
    std::vector<std::pair<PhysAddr, std::uint32_t>> words(golden.begin(),
                                                          golden.end());
    std::sort(words.begin(), words.end());
    w.u64(words.size());
    for (const auto &[pa, v] : words) {
        w.u64(pa);
        w.u32(v);
    }
    std::vector<PhysAddr> op(opaque.begin(), opaque.end());
    std::sort(op.begin(), op.end());
    w.u64(op.size());
    for (PhysAddr pa : op)
        w.u64(pa);
}

void
ProtocolChecker::restore(SnapshotReader &r)
{
    _storesSeen = r.u64();
    _fillsChecked = r.u64();
    _auditsRun = r.u64();
    golden.clear();
    opaque.clear();
    const std::uint64_t nw = r.u64();
    for (std::uint64_t i = 0; i < nw; ++i) {
        const PhysAddr pa = r.u64();
        golden[pa] = r.u32();
    }
    const std::uint64_t no = r.u64();
    for (std::uint64_t i = 0; i < no; ++i)
        opaque.insert(r.u64());
}

} // namespace stashsim
