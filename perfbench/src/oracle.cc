#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "sora/sora.h"
#include "wifi/params.h"

namespace perfbench {

using ziria::Complex16;

namespace {

/** LSB-first bit packing (802.11 order); a partial last byte is kept. */
std::vector<uint8_t>
packBits(const std::vector<uint8_t>& bits)
{
    std::vector<uint8_t> out((bits.size() + 7) / 8, 0);
    for (size_t i = 0; i < bits.size(); ++i)
        out[i / 8] |= static_cast<uint8_t>((bits[i] & 1) << (i % 8));
    return out;
}

std::string
mismatchAt(const char* what, size_t pos)
{
    return std::string(what) + " differs at byte " + std::to_string(pos);
}

size_t
firstDiff(const uint8_t* a, const uint8_t* b, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            return i;
    return n;
}

} // namespace

std::string
checkTx(const std::vector<uint8_t>& out, const std::vector<Complex16>& ref,
        size_t out_width)
{
    if (out.size() % sizeof(Complex16))
        return "TX output is not whole samples";
    size_t n = out.size() / sizeof(Complex16);
    size_t block = std::max<size_t>(out_width / sizeof(Complex16), 1);
    if (n > ref.size())
        return "TX emitted more samples than the reference";
    if (ref.size() - n >= block)
        return "TX emitted " + std::to_string(n) + " of " +
               std::to_string(ref.size()) + " samples";
    size_t d = firstDiff(out.data(),
                         reinterpret_cast<const uint8_t*>(ref.data()),
                         out.size());
    return d < out.size() ? mismatchAt("TX sample stream", d) : "";
}

std::string
checkRxFrame(const std::vector<uint8_t>& bits, bool halted,
             const std::vector<uint8_t>& ctrl,
             const std::vector<uint8_t>& payload)
{
    if (!halted)
        return "RX did not halt (no packet decoded)";
    int32_t crcOk = 0;
    if (ctrl.size() != sizeof crcOk)
        return "RX control value has the wrong width";
    std::memcpy(&crcOk, ctrl.data(), sizeof crcOk);
    if (crcOk != 1)
        return "RX reports an FCS failure";
    if (bits.size() != (payload.size() + 4) * 8)
        return "RX decoded " + std::to_string(bits.size()) +
               " bits, expected " +
               std::to_string((payload.size() + 4) * 8);
    std::vector<uint8_t> bytes = packBits(bits);
    size_t d = firstDiff(bytes.data(), payload.data(), payload.size());
    return d < payload.size() ? mismatchAt("RX payload", d) : "";
}

std::string
checkRxData(const std::vector<uint8_t>& bits,
            const std::vector<uint8_t>& data_bits, uint64_t* short_bits)
{
    if (bits.size() > data_bits.size())
        return "RX data path emitted more bits than the DATA field";
    uint64_t shortfall = data_bits.size() - bits.size();
    if (short_bits)
        *short_bits = shortfall;
    if (shortfall > kRxDataTailAllowance)
        return "RX data path emitted " + std::to_string(bits.size()) +
               " of " + std::to_string(data_bits.size()) + " bits";
    size_t d = firstDiff(bits.data(), data_bits.data(), bits.size());
    return d < bits.size() ? mismatchAt("RX data bits", d) : "";
}

void
scramble(const uint8_t* in, size_t n, uint8_t* out)
{
    uint8_t st[7] = {1, 1, 1, 1, 1, 1, 1};
    for (size_t k = 0; k < n; ++k) {
        uint8_t tmp = st[3] ^ st[0];
        std::memmove(st, st + 1, 6);
        st[6] = tmp;
        out[k] = (in[k] ^ tmp) & 1;
    }
}

std::string
checkScrambler(const std::vector<uint8_t>& in,
               const std::vector<uint8_t>& out)
{
    if (out.size() != in.size())
        return "scrambler emitted " + std::to_string(out.size()) +
               " of " + std::to_string(in.size()) + " bits";
    std::vector<uint8_t> want(in.size());
    scramble(in.data(), in.size(), want.data());
    size_t d = firstDiff(out.data(), want.data(), out.size());
    return d < out.size() ? mismatchAt("scrambler output", d) : "";
}

std::vector<uint8_t>
flipped(std::vector<uint8_t> v, size_t pos)
{
    if (pos < v.size())
        v[pos] ^= 1;
    return v;
}

bool
oracleSelfTest()
{
    using namespace ziria::wifi;
    bool ok = true;
    auto expect = [&](const char* name, bool want_pass,
                      const std::string& why) {
        bool good = want_pass ? why.empty() : !why.empty();
        std::printf("oracle %-24s %-6s %s\n", name, good ? "ok" : "FAILED",
                    why.c_str());
        ok = ok && good;
    };

    std::vector<uint8_t> payload(64);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<uint8_t>(i * 37 + 11);
    std::vector<uint8_t> dataBits(
        static_cast<size_t>(dataFieldBits(Rate::R12, 68)), 0);
    for (size_t i = 0; i < payload.size() * 8; ++i)
        dataBits[16 + i] = (payload[i / 8] >> (i % 8)) & 1;

    // TX: the reference itself passes; a flipped sample byte fires.
    auto ref = ziria::sora::txDataSamples(dataBits, Rate::R12);
    std::vector<uint8_t> txOut(ref.size() * sizeof(Complex16));
    std::memcpy(txOut.data(), ref.data(), txOut.size());
    expect("tx reference", true, checkTx(txOut, ref, 512));
    expect("tx flipped byte", false,
           checkTx(flipped(txOut, txOut.size() / 2), ref, 512));

    // RX frame: the payload plus an (unchecked) FCS with ctrl = 1.
    std::vector<uint8_t> psdu = payload;
    psdu.resize(payload.size() + 4, 0);
    std::vector<uint8_t> bits(psdu.size() * 8);
    for (size_t i = 0; i < bits.size(); ++i)
        bits[i] = (psdu[i / 8] >> (i % 8)) & 1;
    std::vector<uint8_t> ctrlOk = {1, 0, 0, 0};
    expect("rx frame reference", true,
           checkRxFrame(bits, true, ctrlOk, payload));
    expect("rx frame flipped bit", false,
           checkRxFrame(flipped(bits, 100), true, ctrlOk, payload));
    expect("rx frame fcs failure", false,
           checkRxFrame(bits, true, {0, 0, 0, 0}, payload));

    // RX data path: a short prefix passes; a flipped bit fires.
    std::vector<uint8_t> prefix(dataBits.begin(), dataBits.end() - 40);
    uint64_t shortBits = 0;
    expect("rx data prefix", true,
           checkRxData(prefix, dataBits, &shortBits));
    expect("rx data flipped bit", false,
           checkRxData(flipped(prefix, 200), dataBits, &shortBits));

    // Scrambler: the LFSR must agree with the PHY's 127-bit table.
    std::vector<uint8_t> seq = scramblerSequence(300);
    std::vector<uint8_t> in(seq.size()), out(seq.size());
    for (size_t k = 0; k < in.size(); ++k) {
        in[k] = static_cast<uint8_t>((k * 7 + k / 3) & 1);
        out[k] = in[k] ^ seq[k];
    }
    expect("scrambler reference", true, checkScrambler(in, out));
    expect("scrambler flipped bit", false,
           checkScrambler(in, flipped(out, 150)));
    return ok;
}

} // namespace perfbench
