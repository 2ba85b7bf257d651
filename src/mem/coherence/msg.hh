/**
 * @file
 * Coherence protocol messages.
 *
 * The simulator implements the paper's stash-extended DeNovo protocol
 * (Section 4.3) with a flat message structure (one struct, a type
 * enum) in the style of SLICC-generated protocols.  Word-granularity
 * masks appear on every message because both DeNovo state and stash
 * transfers are word-granular.
 *
 * Stash extensions visible here:
 *  - RegReq carries `ownerIsStash` and `stashMapIdx` so the LLC
 *    directory can record *which stash mapping* holds a registered
 *    word (paper Section 4.3, feature 3);
 *  - FwdReadReq to a stash carries the physical line address and the
 *    recorded stash-map index; the stash uses its VP-map RTLB plus
 *    the map entry to locate the data (Section 4.2, remote requests);
 *  - read requests/responses can name arbitrary word subsets so the
 *    LLC can merge partial lines (Section 4.3, feature 2).
 */

#ifndef STASHSIM_MEM_COHERENCE_MSG_HH
#define STASHSIM_MEM_COHERENCE_MSG_HH

#include <cstdint>

#include "mem/line.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace stashsim
{

/** Units that can source/sink coherence messages at a node. */
enum class Unit : std::uint8_t
{
    L1,
    Stash,
    Llc,
    Dma,
};

/** Number of distinct Unit values. */
constexpr unsigned numUnits = unsigned(Unit::Dma) + 1;

/** All message types exchanged over the mesh. */
enum class MsgType : std::uint8_t
{
    ReadReq,     //!< L1/stash -> LLC: demand words of a line
    ReadResp,    //!< LLC or remote owner -> requester: data words
    RegReq,      //!< L1/stash -> LLC: register (own) words for writing
    RegAck,      //!< LLC -> requester
    InvReq,      //!< LLC -> previous owner: registration moved
    WbReq,       //!< L1/stash -> LLC: dirty word data
    WbAck,       //!< LLC -> writer
    FwdReadReq,  //!< LLC -> registered owner: serve requester directly
    FwdRetry,    //!< owner -> LLC: data no longer present, retry
    DmaReadReq,  //!< DMA engine -> LLC (bypasses L1)
    DmaReadResp, //!< LLC -> DMA engine
    DmaWriteReq, //!< DMA engine -> LLC: scratchpad writeback data
    DmaWriteAck, //!< LLC -> DMA engine
};

/** Number of distinct MsgType values (for per-type counters). */
constexpr unsigned numMsgTypes =
    unsigned(MsgType::DmaWriteAck) + 1;

/** Printable message-type name. */
const char *msgTypeName(MsgType t);

/**
 * A coherence message.  Fields are a union of what each type needs;
 * see the per-type comments above.
 */
struct Msg
{
    MsgType type{};

    /** Core whose access started this transaction. */
    CoreId requester = invalidCore;
    /** Unit at the requester's node that receives the response. */
    Unit requesterUnit = Unit::L1;

    /** Physical base address of the line concerned. */
    PhysAddr linePA = 0;
    /** Words of the line this message concerns. */
    WordMask mask = 0;
    /** Data payload (valid for the words in @p mask). */
    LineData data{};

    /**
     * Read requests: when true, respond with exactly @p mask (stash
     * compact fetch); when false the responder may opportunistically
     * include the whole line (cache line fill).
     */
    bool wordsOnly = false;

    /** RegReq/FwdReadReq: the owning stash's map entry index. */
    std::uint8_t stashMapIdx = 0;
    /** RegReq: registration comes from a stash, not an L1. */
    bool ownerIsStash = false;
    /**
     * FwdRetry bounce count.  A retry loop is a protocol bug (a
     * registration pointing nowhere); the tripwire turns a silent
     * livelock into a loud failure.
     */
    std::uint8_t retries = 0;
};

/** Traffic class of a message type (paper Figure 5d categories). */
MsgClass msgClassOf(MsgType t);

/** Wire size of a message in bytes (header + data words). */
unsigned msgBytes(const Msg &m);

} // namespace stashsim

#endif // STASHSIM_MEM_COHERENCE_MSG_HH
