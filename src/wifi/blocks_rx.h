/**
 * @file
 * WiFi receiver blocks written in the DSL, mirroring the paper's RX block
 * list (Figure 5a): DownSample, RemoveDC, DataSymbol, DemapLimit,
 * Demap{BPSK,QPSK,QAM16,QAM64}, Deinterleave (in blocks_tx.h), channel
 * equalization, GetData, and the CRC check computer; CCA, LTS,
 * PilotTrack, FFT and Viterbi are the native blocks of native_blocks.h.
 */
#ifndef ZIRIA_WIFI_BLOCKS_RX_H
#define ZIRIA_WIFI_BLOCKS_RX_H

#include "wifi/blocks_tx.h"
#include "wifi/native_blocks.h"

namespace ziria {
namespace wifi {

/** 2:1 decimation (the paper's 40 Msps front end to 20 Msps baseband). */
CompPtr downSampleBlock();

/** IIR DC-offset removal. */
CompPtr removeDcBlock();

/** Frame one OFDM symbol: takes 80 samples, drops the cyclic prefix. */
CompPtr dataSymbolBlock();

/** Amplitude limiter ahead of demapping (the paper's DemapLimit). */
CompPtr demapLimitBlock();

/** Per-bin one-tap equalization with the Q12 inverse channel. */
CompPtr equalizerBlock(const VarRef& params);

/** Extract the 48 data carriers from an equalized symbol. */
CompPtr getDataBlock();

/** Hard demapper: one point -> nbpsc bits. */
CompPtr demapperBlock(dsp::Modulation m);

/**
 * CRC check computer: skips the SERVICE field, forwards the PSDU bits
 * while checking the FCS, and returns 1 (valid) or 0.  @p h is the bound
 * HeaderInfo variable.
 */
CompPtr checkCrcBlock(const VarRef& h);

/** Expression function: total DATA-field bits for a header. */
FunRef totalBitsFun();

} // namespace wifi
} // namespace ziria

#endif // ZIRIA_WIFI_BLOCKS_RX_H
