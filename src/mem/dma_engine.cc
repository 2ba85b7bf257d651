#include "mem/dma_engine.hh"

#include "sim/log.hh"
#include "verify/protocol_checker.hh"
#include "verify/watchdog.hh"

namespace stashsim
{

DmaEngine::DmaEngine(EventQueue &eq, Fabric &fabric, Tlb &tlb,
                     Scratchpad &spad, CoreId owner, NodeId node,
                     unsigned max_inflight_lines)
    : eq(eq), fabric(fabric), tlb(tlb), spad(spad), owner(owner),
      node(node), maxInflight(max_inflight_lines)
{
}

void
DmaEngine::pump()
{
    while (queuedHead < queued.size() &&
           pending.size() < maxInflight) {
        auto [req, pl] = std::move(queued[queuedHead]);
        ++queuedHead;
        pending.emplace(req.linePA, std::move(pl));
        fabric.send(node, fabric.nodeOfLlc(req.linePA), Unit::Llc,
                    std::move(req));
    }
    if (queuedHead == queued.size() && queuedHead > 0) {
        queued.clear();
        queuedHead = 0;
    }
}

std::map<PhysAddr, DmaEngine::PendingLine>
DmaEngine::plan(const TileSpec &tile, LocalAddr base,
                std::shared_ptr<Transfer> x)
{
    std::map<PhysAddr, PendingLine> by_line;
    const std::uint32_t bytes = tile.mappedBytes();
    // Consecutive words nearly always fall in the same line; reuse
    // the previous slot instead of paying a map lookup per word.
    PhysAddr cur_line = ~PhysAddr{0};
    PendingLine *cur = nullptr;
    for (std::uint32_t off = 0; off < bytes; off += wordBytes) {
        const Addr ga = tile.globalAddrOf(off);
        const PhysAddr pa = tlb.translate(ga);
        if (lineBase(pa) != cur_line) {
            cur_line = lineBase(pa);
            cur = &by_line[cur_line];
        }
        cur->xfer = x;
        cur->mask |= wordBit(lineWord(pa));
        cur->fills.emplace_back(lineWord(pa), LocalAddr(base + off));
    }
    return by_line;
}

void
DmaEngine::load(const TileSpec &tile, LocalAddr base, DoneFn done)
{
    ++_stats.transfers;
    auto x = std::make_shared<Transfer>();
    x->done = std::move(done);

    auto by_line = plan(tile, base, x);
    x->pendingLines = unsigned(by_line.size());
    if (by_line.empty()) {
        eq.scheduleIn(0, [x]() { x->done(); });
        return;
    }

    // The engine injects one line request per cycle — a burst, which
    // is exactly the bursty-traffic behaviour the paper attributes to
    // DMA preloads.  Contention is resolved in the mesh.
    for (auto &[line_pa, pl] : by_line) {
        Msg req;
        req.type = MsgType::DmaReadReq;
        req.requester = owner;
        req.requesterUnit = Unit::Dma;
        req.linePA = line_pa;
        req.mask = pl.mask;
        req.wordsOnly = true;
        queued.emplace_back(std::move(req), std::move(pl));
    }
    pump();
}

void
DmaEngine::store(const TileSpec &tile, LocalAddr base, DoneFn done)
{
    ++_stats.transfers;
    auto x = std::make_shared<Transfer>();
    x->done = std::move(done);

    auto by_line = plan(tile, base, x);
    x->pendingLines = unsigned(by_line.size());
    if (by_line.empty()) {
        eq.scheduleIn(0, [x]() { x->done(); });
        return;
    }

    for (auto &[line_pa, pl] : by_line) {
        Msg req;
        req.type = MsgType::DmaWriteReq;
        req.requester = owner;
        req.requesterUnit = Unit::Dma;
        req.linePA = line_pa;
        req.mask = pl.mask;
        for (const auto &[word, local] : pl.fills) {
            // Drain: the engine reads each word out of the scratchpad.
            req.data.w[word] = spad.read(local);
            ++_stats.wordsStored;
            if (checker) {
                // The DMA write is the point the value becomes
                // globally visible: commit it to the golden image.
                checker->onStore(line_pa + PhysAddr(word) * wordBytes,
                                 req.data.w[word]);
            }
        }
        pl.fills.clear();
        queued.emplace_back(std::move(req), std::move(pl));
    }
    pump();
}

void
DmaEngine::receive(const Msg &msg)
{
    auto it = pending.find(msg.linePA);
    sim_assert(it != pending.end());
    PendingLine &pl = it->second;

    switch (msg.type) {
      case MsgType::DmaReadResp:
      case MsgType::ReadResp: {
        // A read may be answered in pieces: partly by the LLC, partly
        // by remote owners the LLC forwarded to.  Complete the line
        // only when every requested word has arrived.
        std::erase_if(pl.fills, [&](const auto &fill) {
            const auto &[word, local] = fill;
            if (!(msg.mask & wordBit(word)))
                return false;
            spad.write(local, msg.data.w[word]);
            ++_stats.wordsLoaded;
            if (checker) {
                checker->onFill("DMA", owner,
                                msg.linePA + PhysAddr(word) * wordBytes,
                                msg.data.w[word]);
            }
            return true;
        });
        if (!pl.fills.empty())
            return;
        break;
      }
      case MsgType::DmaWriteAck:
        break;
      default:
        panic("DMA engine received unexpected ", msgTypeName(msg.type));
    }

    auto x = pl.xfer;
    pending.erase(it);
    if (watchdog)
        watchdog->progress();
    pump();
    sim_assert(x->pendingLines > 0);
    if (--x->pendingLines == 0)
        x->done();
}

void
DmaEngine::assertDrained() const
{
    sim_assert(pending.empty());
    sim_assert(queued.empty() && queuedHead == 0);
}

} // namespace stashsim
