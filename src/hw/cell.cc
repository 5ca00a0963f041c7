#include "hw/cell.hh"

namespace ap::hw
{

Cell::Cell(sim::Simulator &sim, const MachineConfig &cfg,
           const mlsim::Params &costs, CellId id, net::Link &tnet,
           BufferPool &pool, sim::FaultInjector &faults,
           obs::SpanLayer &spans)
    : cellId(id),
      mem(cfg.memBytesPerCell),
      mcUnit(mem),
      ringBuf(sim, id, spans, cfg.ringBufferBytes),
      mscUnit(sim, cfg, costs, *this, tnet, pool, faults, spans)
{
    // The runtime's default address-space layout: the whole DRAM
    // identity-mapped with 4 KB pages. Tests exercising faults and
    // remapping rebuild this as needed.
    mcUnit.mmu().map_linear(cfg.memBytesPerCell);
}

} // namespace ap::hw
