/**
 * @file
 * MLSim machine parameters — the Figure 6 parameter file.
 *
 * "MLSim simulates communication behavior based on the trace
 * information and parameter file ... The computation parameter is
 * given as a ratio to SPARC performance and communication parameters
 * are given in microseconds."
 *
 * Fields named exactly as in Figure 6 carry the paper's values; the
 * remaining fields are the quantities Figure 7 names but whose values
 * the paper only describes as "estimated from hardware
 * specifications" — our estimates are documented in EXPERIMENTS.md.
 */

#ifndef AP_MLSIM_PARAMS_HH
#define AP_MLSIM_PARAMS_HH

#include <string>

namespace ap::mlsim
{

/** One machine model's parameter set. All times in microseconds. */
struct Params
{
    /** Model name (comment header of the parameter file). */
    std::string name = "AP1000";

    // ---- computation ----
    /** Ratio to base SPARC performance (Figure 6). */
    double computation_factor = 1.00;
    /** us per floating-point operation at factor 1.0 (~6 MFLOPS). */
    double flop_time = 0.16;

    // ---- network (Figure 7 items 15-18) ----
    double network_prolog_time = 0.16;
    /** B-net broadcast bus: acquisition + per-byte (50 MB/s). */
    double bnet_prolog_time = 0.5;
    double bnet_msg_time = 0.02;
    double network_delay_time = 0.16;   ///< per hop
    double network_msg_time = 0.04;     ///< per byte (25 MB/s links)
    double network_epilog_time = 0.00;

    // ---- PUT/GET send path (Figure 7 items 1-5) ----
    double put_prolog_time = 20.0;  ///< SVC entry (software model)
    double put_enqueue_time = 0.16; ///< the 8 parameter stores
    double put_epilog_time = 15.0;  ///< SVC exit (software model)
    double put_msg_time = 0.05;     ///< per-message fixed cost
    double put_dma_set_time = 15.0; ///< DMA parameter setup
    double put_msg_post_time = 0.04;///< per byte: post mirrors cache

    // ---- send/receive completion (Figure 7 items 6-12) ----
    double send_complete_time = 10.0;
    double send_complete_flag_time = 1.0;
    double recv_complete_time = 10.0;
    double recv_complete_flag_time = 1.0;

    // ---- receive path (Figure 7 items 8-10) ----
    double intr_rtc_time = 20.0;        ///< RTC interrupt entry
    double recv_msg_invalid_time = 0.04;///< per byte: cache invalidate
    double recv_dma_set_time = 15.0;

    // ---- flag checking (Figure 7 items 13-14) ----
    double flag_check_prolog_time = 1.0;
    double flag_check_epilog_time = 1.0;

    // ---- SEND/RECEIVE library ----
    /** 1 = SEND blocks until the transfer completes (AP1000). */
    double send_blocking = 1.0;
    double recv_search_time = 5.0;
    double recv_copy_time = 0.04;       ///< per byte user-area copy

    // ---- collectives ----
    double barrier_prolog_time = 2.0;   ///< library entry
    double barrier_time = 5.0;          ///< S-net combine/release
    double gop_step_time = 60.0;        ///< per tree level
    double vgop_step_time = 20.0;       ///< fixed cost per ring step
    /** per byte handled in a vector-reduction step beyond the send
     *  path (ring-buffer deposit + in-place operand traffic). */
    double vgop_byte_time = 0.0;

    // ---- run-time system (VPP Fortran) ----
    double rts_putget_time = 4.0;       ///< address calc per transfer
    double rts_stride_time = 6.0;       ///< stride pattern discovery

    // ---- message handling style ----
    /** 1 = MSC+ hardware handling (AP1000+); 0 = software. */
    double hardware_handling = 0.0;

    /** @return true when the MSC+ handles messages in hardware. */
    bool hw() const { return hardware_handling != 0.0; }

    /** The AP1000: SPARC, software message handling (Figure 6). */
    static Params ap1000();

    /**
     * The AP1000+: SuperSPARC (8x), MSC+ hardware handling
     * (Figure 6).
     */
    static Params ap1000_plus();

    /**
     * "AP1000 with SPARC replaced by SuperSPARC": the paper's second
     * model — fast processor, software message handling.
     */
    static Params ap1000_fast();

    /**
     * Serialize in the Figure 6 file format (named values, '#'
     * comments).
     */
    std::string to_file() const;

    /**
     * Parse the Figure 6 file format. Unknown keys are fatal (a
     * typo'd parameter silently defaulting would poison results),
     * and so are negative and non-finite values.
     */
    static Params from_file(const std::string &text);

    /** Set one field by its Figure 6 name. @return false if unknown. */
    bool set(const std::string &key, double value);

    /** Get one field by name. @return false if unknown. */
    bool get(const std::string &key, double &value) const;
};

} // namespace ap::mlsim

#endif // AP_MLSIM_PARAMS_HH
