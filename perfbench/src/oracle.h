/**
 * @file
 * Output oracles for the benchmark, independent of the Ziria compiler:
 * the TX and RX references are the hand-written Sora-style transceiver
 * (src/sora) and the generator's own inputs, and the scrambler
 * reference is a 7-bit LFSR written out here.  Every check returns an
 * empty string on success and a one-line reason on failure.
 */
#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include <cstdint>
#include <string>
#include <vector>

#include "ztype/value.h"

namespace perfbench {

/**
 * Samples emitted by a `wifiTxDataComp` pipeline against the reference
 * samples over the emitted prefix.  A vectorized pipeline holds back
 * its last partial output block at end of input, so the output may
 * fall short of the reference by less than one output element of
 * @p out_width bytes.
 */
std::string checkTx(const std::vector<uint8_t>& out,
                    const std::vector<ziria::Complex16>& ref,
                    size_t out_width);

/**
 * Full receiver: halted with control value 1 (FCS ok), and the decoded
 * PSDU is the sent payload plus its 4-byte FCS.
 */
std::string checkRxFrame(const std::vector<uint8_t>& bits, bool halted,
                         const std::vector<uint8_t>& ctrl,
                         const std::vector<uint8_t>& payload);

/**
 * Rate-locked RX data path: the emitted bits equal the DATA-field bits
 * over the emitted prefix.  The path emits fewer bits than the field
 * holds at end of input; @p short_bits receives the shortfall, which
 * is recorded (wifi.rx_data.tail_bits_short) rather than failed unless
 * it exceeds kRxDataTailAllowance.
 */
std::string checkRxData(const std::vector<uint8_t>& bits,
                        const std::vector<uint8_t>& data_bits,
                        uint64_t* short_bits);

/** Largest tolerated RX data-path shortfall, in bits. */
constexpr uint64_t kRxDataTailAllowance = 1024;

/**
 * Hand-written 802.11 scrambler (x^7 + x^4 + 1, all-ones seed), one
 * byte per bit: out[k] = in[k] XOR the LFSR's k-th bit.  The scrambler
 * oracle's reference and the calibration kernel (harness.h).
 */
void scramble(const uint8_t* in, size_t n, uint8_t* out);

/**
 * 802.11 scrambler (x^7 + x^4 + 1, all-ones seed) over one session:
 * output bit k is input bit k XOR the LFSR's k-th bit.  One byte per
 * bit, as on the wire.
 */
std::string checkScrambler(const std::vector<uint8_t>& in,
                           const std::vector<uint8_t>& out);

/** Copy of @p v with byte @p pos XOR 1 (a bit stays a bit). */
std::vector<uint8_t> flipped(std::vector<uint8_t> v, size_t pos);

/**
 * Positive and negative checks of every oracle on reference outputs:
 * each must accept the reference and fire on a one-byte flip.  Prints
 * one line per case; returns true when all behave.
 */
bool oracleSelfTest();

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
