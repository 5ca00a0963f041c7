#include "mlsim/params.hh"

#include <cmath>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/strings.hh"

namespace ap::mlsim
{

namespace
{

/** Name <-> field table drives set/get/to_file/from_file. */
struct Field
{
    const char *key;
    double Params::*member;
};

const std::vector<Field> &
fields()
{
    static const std::vector<Field> f = {
        {"computation_factor", &Params::computation_factor},
        {"flop_time", &Params::flop_time},
        {"network_prolog_time", &Params::network_prolog_time},
        {"bnet_prolog_time", &Params::bnet_prolog_time},
        {"bnet_msg_time", &Params::bnet_msg_time},
        {"network_delay_time", &Params::network_delay_time},
        {"network_msg_time", &Params::network_msg_time},
        {"network_epilog_time", &Params::network_epilog_time},
        {"put_prolog_time", &Params::put_prolog_time},
        {"put_enqueue_time", &Params::put_enqueue_time},
        {"put_epilog_time", &Params::put_epilog_time},
        {"put_msg_time", &Params::put_msg_time},
        {"put_dma_set_time", &Params::put_dma_set_time},
        {"put_msg_post_time", &Params::put_msg_post_time},
        {"send_complete_time", &Params::send_complete_time},
        {"send_complete_flag_time", &Params::send_complete_flag_time},
        {"recv_complete_time", &Params::recv_complete_time},
        {"recv_complete_flag_time", &Params::recv_complete_flag_time},
        {"intr_rtc_time", &Params::intr_rtc_time},
        {"recv_msg_invalid_time", &Params::recv_msg_invalid_time},
        {"recv_dma_set_time", &Params::recv_dma_set_time},
        {"flag_check_prolog_time", &Params::flag_check_prolog_time},
        {"flag_check_epilog_time", &Params::flag_check_epilog_time},
        {"send_blocking", &Params::send_blocking},
        {"recv_search_time", &Params::recv_search_time},
        {"recv_copy_time", &Params::recv_copy_time},
        {"barrier_prolog_time", &Params::barrier_prolog_time},
        {"barrier_time", &Params::barrier_time},
        {"gop_step_time", &Params::gop_step_time},
        {"vgop_step_time", &Params::vgop_step_time},
        {"vgop_byte_time", &Params::vgop_byte_time},
        {"rts_putget_time", &Params::rts_putget_time},
        {"rts_stride_time", &Params::rts_stride_time},
        {"hardware_handling", &Params::hardware_handling},
    };
    return f;
}

} // namespace

bool
Params::set(const std::string &key, double value)
{
    for (const Field &f : fields()) {
        if (key == f.key) {
            this->*(f.member) = value;
            return true;
        }
    }
    return false;
}

bool
Params::get(const std::string &key, double &value) const
{
    for (const Field &f : fields()) {
        if (key == f.key) {
            value = this->*(f.member);
            return true;
        }
    }
    return false;
}

Params
Params::ap1000()
{
    // The left column of Figure 6, verbatim where given.
    Params p;
    p.name = "AP1000";
    p.computation_factor = 1.00;
    p.network_prolog_time = 0.16;
    p.network_delay_time = 0.16;
    p.put_prolog_time = 20.0;
    p.put_epilog_time = 15.0;
    p.put_msg_time = 0.05;
    p.put_dma_set_time = 15.0;
    p.put_msg_post_time = 0.04;
    p.intr_rtc_time = 20.0;
    p.recv_msg_invalid_time = 0.04;
    p.recv_dma_set_time = 15.0;
    p.hardware_handling = 0.0;
    p.send_blocking = 1.0;
    // Estimated from hardware/OS behaviour (see EXPERIMENTS.md).
    p.send_complete_time = 10.0;
    p.send_complete_flag_time = 1.0;
    p.recv_complete_time = 10.0;
    p.recv_complete_flag_time = 1.0;
    p.flag_check_prolog_time = 1.0;
    p.flag_check_epilog_time = 1.0;
    p.recv_search_time = 5.0;
    p.recv_copy_time = 0.04;
    p.barrier_prolog_time = 2.0;
    p.barrier_time = 5.0;
    p.gop_step_time = 60.0;
    p.vgop_step_time = 20.0;
    p.rts_putget_time = 40.0;
    p.rts_stride_time = 60.0;
    return p;
}

Params
Params::ap1000_plus()
{
    // The right column of Figure 6, verbatim where given.
    Params p;
    p.name = "AP1000+";
    p.computation_factor = 0.125;
    p.network_prolog_time = 0.16;
    p.network_delay_time = 0.16;
    p.put_prolog_time = 1.00;
    p.put_epilog_time = 0.00;
    p.put_msg_time = 0.05;
    p.put_dma_set_time = 0.50;
    p.put_msg_post_time = 0.00;
    p.intr_rtc_time = 0.00;
    p.recv_msg_invalid_time = 0.00;
    p.recv_dma_set_time = 0.50;
    p.hardware_handling = 1.0;
    p.send_blocking = 0.0; // SEND = non-blocking PUT to ring buffer
    // MSC+ handles completion; the MC increments flags in hardware.
    p.send_complete_time = 0.0;
    p.send_complete_flag_time = 0.04;
    p.recv_complete_time = 0.0;
    p.recv_complete_flag_time = 0.04;
    p.flag_check_prolog_time = 0.10;
    p.flag_check_epilog_time = 0.00;
    p.recv_search_time = 1.0;
    p.recv_copy_time = 0.02;
    p.barrier_prolog_time = 0.20;
    p.barrier_time = 1.0;
    p.gop_step_time = 2.0; // communication registers
    p.vgop_step_time = 2.0;
    // The reduction operands stream through DRAM three times per
    // step (send gather, ring deposit, in-place consume) at memory
    // bandwidth; the blocking-send software path of the AP1000
    // models this inside its send/receive costs instead.
    p.vgop_byte_time = 0.035;
    p.rts_putget_time = 40.0; // SPARC-relative; scaled by the factor
    p.rts_stride_time = 60.0;
    return p;
}

Params
Params::ap1000_fast()
{
    // "an AP1000 model whose processor speed is eight times faster
    // and message handling is done by software" (Section 5.3).
    Params p = ap1000();
    p.name = "AP1000*";
    p.computation_factor = 0.125;
    return p;
}

std::string
Params::to_file() const
{
    std::string out;
    out += "#\n# " + name + " model\n#\n";
    out += "# computation\n";
    for (const Field &f : fields()) {
        out += strprintf("%-26s %.4f\n", f.key, this->*(f.member));
    }
    return out;
}

Params
Params::from_file(const std::string &text)
{
    Params p;
    int lineno = 0;
    for (const std::string &raw : split(text, '\n')) {
        ++lineno;
        std::string_view line = trim(raw);
        if (line.empty() || line[0] == '#')
            continue;
        auto toks = split_ws(line);
        if (toks.size() != 2)
            fatal("parameter file line %d: expected 'name value', "
                  "got '%s'",
                  lineno, std::string(line).c_str());
        auto value = parse_double(toks[1]);
        if (!value)
            fatal("parameter file line %d: bad value '%s'", lineno,
                  toks[1].c_str());
        // A negative or non-finite cost would schedule events in the
        // past or overflow the tick conversion.
        if (!std::isfinite(*value) || *value < 0.0)
            fatal("parameter file line %d: '%s' must be a finite "
                  "value >= 0, got '%s'",
                  lineno, toks[0].c_str(), toks[1].c_str());
        if (!p.set(toks[0], *value))
            fatal("parameter file line %d: unknown parameter '%s'",
                  lineno, toks[0].c_str());
    }
    return p;
}

} // namespace ap::mlsim
