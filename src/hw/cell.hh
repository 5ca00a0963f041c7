/**
 * @file
 * One processing element (cell) of the AP1000+ (Figure 5).
 *
 * A cell composes the DRAM image, the MC (MMU + flag updater +
 * communication registers), the MSC+ (queues + DMA + message
 * handling) and the ring buffer of the SEND/RECEIVE model. The
 * SuperSPARC itself is represented by the fiber process that runs the
 * cell's SPMD program (src/core/program.hh).
 */

#ifndef AP_HW_CELL_HH
#define AP_HW_CELL_HH

#include <memory>

#include "base/types.hh"
#include "hw/bufpool.hh"
#include "hw/config.hh"
#include "hw/mc.hh"
#include "hw/memory.hh"
#include "hw/msc.hh"
#include "hw/ringbuf.hh"
#include "net/link.hh"
#include "sim/eventq.hh"

namespace ap::hw
{

/** A processing element. */
class Cell
{
  public:
    /**
     * @param sim owning simulator
     * @param cfg machine configuration
     * @param costs the machine's Figure 6 cost table
     * @param id this cell's id
     * @param tnet the outgoing message link
     * @param pool payload buffer pool of this cell's kernel shard
     * @param faults the machine's fault injector
     * @param spans the machine's span layer
     */
    Cell(sim::Simulator &sim, const MachineConfig &cfg,
         const mlsim::Params &costs, CellId id, net::Link &tnet,
         BufferPool &pool, sim::FaultInjector &faults,
         obs::SpanLayer &spans);

    Cell(const Cell &) = delete;
    Cell &operator=(const Cell &) = delete;

    /** This cell's id. */
    CellId id() const { return cellId; }

    /** The DRAM image. */
    CellMemory &memory() { return mem; }
    const CellMemory &memory() const { return mem; }

    /** The memory controller. */
    Mc &mc() { return mcUnit; }
    const Mc &mc() const { return mcUnit; }

    /** The message controller. */
    Msc &msc() { return mscUnit; }
    const Msc &msc() const { return mscUnit; }

    /** The SEND/RECEIVE ring buffer. */
    RingBuffer &ring() { return ringBuf; }
    const RingBuffer &ring() const { return ringBuf; }

  private:
    CellId cellId;
    CellMemory mem;
    Mc mcUnit;
    RingBuffer ringBuf;
    Msc mscUnit;
};

} // namespace ap::hw

#endif // AP_HW_CELL_HH
