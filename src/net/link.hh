/**
 * @file
 * Abstract point-to-point message link.
 *
 * The MSC+ hands outgoing messages to a Link; concretely that is
 * either the raw T-net or the reliable-delivery layer stacked on top
 * of it (net/reliable.hh). The seam keeps the MSC+ oblivious to
 * whether sequencing/retransmission happens underneath. Arrivals go
 * to the link's one receiver: the reliable layer is the T-net's
 * receiver when it is stacked, and the machine is the top link's.
 */

#ifndef AP_NET_LINK_HH
#define AP_NET_LINK_HH

#include <utility>

#include "base/types.hh"
#include "net/message.hh"

namespace ap::net
{

/** Anything that can carry a Message from src to dst. */
class Link
{
  public:
    virtual ~Link() = default;

    /**
     * Accept @p msg for delivery at its destination.
     * @return the scheduled arrival tick of the initial transmission
     * (informational; reliable links may deliver later).
     *
     * Implementations must preserve @ref Message::traceId end to end
     * (including on retransmitted copies) so the causal span layer
     * (obs/span.hh) can stitch one operation's lifecycle across the
     * link boundary.
     */
    virtual Tick send(Message msg) = 0;

    /** Install the receiver of every message this link delivers. */
    void set_receiver(Deliver d) { receiver = std::move(d); }

  protected:
    Deliver receiver;
};

} // namespace ap::net

#endif // AP_NET_LINK_HH
