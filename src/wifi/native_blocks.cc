#include "wifi/native_blocks.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <deque>

#include "dsp/fft.h"
#include "dsp/viterbi.h"
#include "support/metrics.h"
#include "support/panic.h"
#include "zparse/parser.h"

namespace ziria {
namespace wifi {

namespace {

const dsp::Fft&
fft64()
{
    static dsp::Fft plan(fftSize);
    return plan;
}

Complex16
readC16At(const uint8_t* p, int i)
{
    Complex16 c;
    std::memcpy(&c, p + 4 * i, 4);
    return c;
}

// Checkpoint helpers for the deque-of-doubles window state the
// detection kernels keep (docs/ROBUSTNESS.md, "Checkpointing &
// migration").

void
writeCplxDeque(StateWriter& w, const std::deque<std::complex<double>>& d)
{
    w.u64(d.size());
    for (const auto& c : d) {
        w.f64(c.real());
        w.f64(c.imag());
    }
}

void
readCplxDeque(StateReader& r, std::deque<std::complex<double>>& d)
{
    d.clear();
    uint64_t n = r.u64();
    for (uint64_t i = 0; i < n; ++i) {
        double re = r.f64();
        double im = r.f64();
        d.emplace_back(re, im);
    }
}

} // namespace

TypePtr
symbolArrayType()
{
    static TypePtr t = Type::array(Type::complex16(), fftSize);
    return t;
}

TypePtr
detInfoType()
{
    static TypePtr t = Type::strct(
        "DetInfo", {{"shift", Type::int32()}, {"energy", Type::int32()}});
    return t;
}

// ------------------------------------------------------------ FFT/IFFT

namespace {

class FftKernel : public NativeKernel
{
  public:
    explicit FftKernel(bool inverse) : inverse_(inverse) {}

    bool
    consume(const uint8_t* in, Emitter& em) override
    {
        Complex16 buf[fftSize];
        Complex16 out[fftSize];
        std::memcpy(buf, in, sizeof(buf));
        if (inverse_)
            fft64().inverse(buf, out);
        else
            fft64().forward(buf, out);
        em.emit(reinterpret_cast<const uint8_t*>(out));
        return false;
    }

  private:
    bool inverse_;
};

std::shared_ptr<const NativeBlockSpec>
makeFftSpec(bool inverse)
{
    auto spec = std::make_shared<NativeBlockSpec>();
    spec->name = inverse ? "IFFT" : "FFT";
    spec->ctype = CompType{false, nullptr, symbolArrayType(),
                           symbolArrayType()};
    spec->make = [inverse](const std::vector<Value>&) {
        return std::make_unique<FftKernel>(inverse);
    };
    return spec;
}

} // namespace

std::shared_ptr<const NativeBlockSpec>
specFft()
{
    static auto spec = makeFftSpec(false);
    return spec;
}

std::shared_ptr<const NativeBlockSpec>
specIfft()
{
    static auto spec = makeFftSpec(true);
    return spec;
}

// -------------------------------------------------------------- Viterbi

namespace {

class ViterbiKernel : public NativeKernel
{
  public:
    ViterbiKernel(dsp::CodingRate rate, long out_bits)
        : depunct_(rate), outBits_(out_bits)
    {
    }

    void
    reset() override
    {
        depunct_.reset();
        decoder_.reset();
        latticeLen_ = 0;
        decoded_.clear();
        pairsFed_ = 0;
        emitted_ = 0;
        flushed_ = false;
    }

    bool
    consume(const uint8_t* in, Emitter& em) override
    {
        if (flushed_)
            return false;  // trellis complete: ignore trailing input
        latticeLen_ += depunct_.input(*in, lattice_ + latticeLen_);
        int pos = 0;  // read cursor into lattice_
        while (latticeLen_ - pos >= 2 && pairsFed_ < outBits_) {
            decoder_.inputPair(lattice_[pos], lattice_[pos + 1], decoded_);
            pos += 2;
            ++pairsFed_;
        }
        if (pairsFed_ >= outBits_) {
            decoder_.flush(decoded_);
            flushed_ = true;
        }
        // Keep only the entries not yet fed: at most one before the
        // flush, which also snapshot() records.
        for (int i = pos; i < latticeLen_; ++i)
            lattice_[i - pos] = lattice_[i];
        latticeLen_ -= pos;
        if (!decoded_.empty()) {
            // The decoder releases bits a block at a time.
            const long n = std::max(
                std::min(static_cast<long>(decoded_.size()),
                         outBits_ - emitted_),
                0L);
            em.emitRun(decoded_.data(), static_cast<size_t>(n), 1);
            emitted_ += n;
            decoded_.clear();
        }
        return false;
    }

    void
    snapshot(StateWriter& w) const override
    {
        w.u32(static_cast<uint32_t>(depunct_.phase()));
        decoder_.snapshot(w);
        w.blob(lattice_, static_cast<size_t>(latticeLen_));
        w.i64(pairsFed_);
        w.i64(emitted_);
        w.u8(flushed_ ? 1 : 0);
    }

    void
    restore(StateReader& r) override
    {
        const uint32_t phase = r.u32();
        if (phase >= static_cast<uint32_t>(depunct_.period()))
            throw StateFormatError("viterbi depuncturer phase out of range");
        depunct_.setPhase(static_cast<int>(phase));
        decoder_.restore(r);
        std::vector<uint8_t> lat = r.blob();
        pairsFed_ = r.i64();
        emitted_ = r.i64();
        flushed_ = r.u8() != 0;
        // consume() leaves at most one unfed entry until the flush, and
        // input after the flush is ignored.
        if (lat.size() > (flushed_ ? sizeof(lattice_) : 1))
            throw StateFormatError("viterbi lattice remainder too long");
        std::copy(lat.begin(), lat.end(), lattice_);
        latticeLen_ = static_cast<int>(lat.size());
        decoded_.clear();
    }

  private:
    dsp::Depuncturer depunct_;
    dsp::ViterbiDecoder decoder_;
    /** Lattice entries not yet fed: a pending half pair plus one
     *  input()'s worth. */
    uint8_t lattice_[1 + dsp::Depuncturer::kMaxLattice] = {};
    int latticeLen_ = 0;
    std::vector<uint8_t> decoded_;  ///< bits released, not yet emitted
    long outBits_;
    long pairsFed_ = 0;
    long emitted_ = 0;
    bool flushed_ = false;
};

} // namespace

std::shared_ptr<const NativeBlockSpec>
specViterbi()
{
    static auto spec = [] {
        auto s = std::make_shared<NativeBlockSpec>();
        s->name = "Viterbi";
        s->ctype = CompType{false, nullptr, Type::bit(), Type::bit()};
        s->make = [](const std::vector<Value>& args) {
            ZIRIA_ASSERT(args.size() == 2, "Viterbi(coding, nbits)");
            auto k = std::make_unique<ViterbiKernel>(
                codFromCode(static_cast<int32_t>(args[0].asInt())),
                args[1].asInt());
            k->reset();
            return k;
        };
        return s;
    }();
    return spec;
}

// ------------------------------------------------------------------ CCA

namespace {

/**
 * Delay-16 autocorrelation detector over a 32-sample window with an
 * absolute energy floor; declares detection after 48 consecutive
 * correlated samples (well inside the 160-sample STS).
 */
class CcaKernel : public NativeKernel
{
  public:
    void
    reset() override
    {
        hist_.clear();
        prods_.clear();
        pows_.clear();
        corr_ = {0.0, 0.0};
        energy_ = 0.0;
        run_ = 0;
        done_ = false;
    }

    bool
    consume(const uint8_t* in, Emitter&) override
    {
        if (done_)
            return true;
        Complex16 s = readC16At(in, 0);
        std::complex<double> x(s.re, s.im);
        hist_.push_back(x);
        if (hist_.size() > 16) {
            std::complex<double> prev = hist_[hist_.size() - 17];
            std::complex<double> p = x * std::conj(prev);
            double w = std::norm(x);
            prods_.push_back(p);
            pows_.push_back(w);
            corr_ += p;
            energy_ += w;
            if (prods_.size() > 32) {
                corr_ -= prods_.front();
                energy_ -= pows_.front();
                prods_.pop_front();
                pows_.pop_front();
            }
            if (hist_.size() > 64)
                hist_.pop_front();
            if (prods_.size() == 32) {
                double c2 = std::norm(corr_);
                bool hot = energy_ > 32.0 * 10000.0 &&
                           c2 > 0.5 * energy_ * energy_;
                run_ = hot ? run_ + 1 : 0;
                if (run_ >= 48) {
                    done_ = true;
                    ctrl_.resize(8);
                    int32_t shift = 0;
                    int32_t en = static_cast<int32_t>(
                        std::min(energy_ / 32.0, 2.0e9));
                    std::memcpy(ctrl_.data(), &shift, 4);
                    std::memcpy(ctrl_.data() + 4, &en, 4);
                    return true;
                }
            }
        }
        return false;
    }

    const std::vector<uint8_t>& ctrl() const override { return ctrl_; }

    void
    snapshot(StateWriter& w) const override
    {
        writeCplxDeque(w, hist_);
        writeCplxDeque(w, prods_);
        w.u64(pows_.size());
        for (double p : pows_)
            w.f64(p);
        w.f64(corr_.real());
        w.f64(corr_.imag());
        w.f64(energy_);
        w.u32(static_cast<uint32_t>(run_));
        w.u8(done_ ? 1 : 0);
        w.blob(ctrl_.data(), ctrl_.size());
    }

    void
    restore(StateReader& r) override
    {
        readCplxDeque(r, hist_);
        readCplxDeque(r, prods_);
        pows_.clear();
        uint64_t np = r.u64();
        for (uint64_t i = 0; i < np; ++i)
            pows_.push_back(r.f64());
        double cre = r.f64();
        double cim = r.f64();
        corr_ = {cre, cim};
        energy_ = r.f64();
        run_ = static_cast<int>(r.u32());
        done_ = r.u8() != 0;
        ctrl_ = r.blob();
    }

  private:
    std::deque<std::complex<double>> hist_;
    std::deque<std::complex<double>> prods_;
    std::deque<double> pows_;
    std::complex<double> corr_{0.0, 0.0};
    double energy_ = 0.0;
    int run_ = 0;
    bool done_ = false;
    std::vector<uint8_t> ctrl_;
};

} // namespace

std::shared_ptr<const NativeBlockSpec>
specCca()
{
    static auto spec = [] {
        auto s = std::make_shared<NativeBlockSpec>();
        s->name = "CCA";
        s->ctype = CompType{true, detInfoType(), Type::complex16(),
                            nullptr};
        s->make = [](const std::vector<Value>&) {
            auto k = std::make_unique<CcaKernel>();
            k->reset();
            return k;
        };
        return s;
    }();
    return spec;
}

// ------------------------------------------------------------------ LTS

namespace {

/**
 * Slides a 64-sample window against the known LTS symbol; on the first
 * correlation peak it records the window as LTS1, consumes exactly 64
 * more samples for LTS2, estimates the channel from both, and returns
 * the Q12 inverse channel.  Consumption stops precisely at the end of
 * LTS2, so the downstream symbol framing needs no explicit shift.
 *
 * Degradation: when no LTS shows up within the sample budget (a false
 * CCA trigger, a truncated capture) the kernel gives up with an
 * all-zero channel instead of aborting.  The zero channel makes the
 * SIGNAL symbol decode to garbage, the header-valid guard drops it,
 * and the RX loop returns to carrier sense — one dropped "packet",
 * counted in wifi.rx.sync_failures, instead of a dead receiver.
 */
class LtsKernel : public NativeKernel
{
  public:
    void
    reset() override
    {
        ring_.clear();
        n_ = 0;
        peakN_ = -1;
        bestRatio_ = 0.0;
        sincePeak_ = 0;
        w1_.clear();
        done_ = false;
        scanned_ = 0;
    }

    bool
    consume(const uint8_t* in, Emitter&) override
    {
        if (done_)
            return true;
        Complex16 s = readC16At(in, 0);
        ring_.push_back(std::complex<double>(s.re, s.im));
        if (ring_.size() > 64)
            ring_.pop_front();
        ++n_;
        ++scanned_;
        if (scanned_ > kScanBudget) {
            auto& reg = metrics::Registry::global();
            reg.counter("wifi.rx.sync_failures").inc();
            reg.counter("wifi.rx.resyncs").inc();
            ctrl_.assign(fftSize * 4, 0);  // zero channel: header decodes
            done_ = true;                  // invalid, RX loop resyncs
            return true;
        }

        if (peakN_ < 0) {
            if (ring_.size() < 64)
                return false;
            double ratio = corrRatio();
            if (ratio > 0.5 && ratio >= bestRatio_) {
                bestRatio_ = ratio;
                sincePeak_ = 0;
                w1_.assign(ring_.begin(), ring_.end());
                peakCandidateN_ = n_;
            } else if (bestRatio_ > 0.0) {
                ++sincePeak_;
                if (sincePeak_ >= 3)
                    peakN_ = peakCandidateN_;
            }
            return false;
        }

        if (n_ == peakN_ + 64) {
            std::vector<std::complex<double>> w2(ring_.begin(),
                                                 ring_.end());
            estimate(w2);
            done_ = true;
            return true;
        }
        return false;
    }

    const std::vector<uint8_t>& ctrl() const override { return ctrl_; }

    void
    snapshot(StateWriter& w) const override
    {
        writeCplxDeque(w, ring_);
        w.i64(n_);
        w.i64(peakN_);
        w.i64(peakCandidateN_);
        w.f64(bestRatio_);
        w.u32(static_cast<uint32_t>(sincePeak_));
        w.i64(scanned_);
        w.u64(w1_.size());
        for (const auto& c : w1_) {
            w.f64(c.real());
            w.f64(c.imag());
        }
        w.u8(done_ ? 1 : 0);
        w.blob(ctrl_.data(), ctrl_.size());
    }

    void
    restore(StateReader& r) override
    {
        readCplxDeque(r, ring_);
        n_ = r.i64();
        peakN_ = r.i64();
        peakCandidateN_ = r.i64();
        bestRatio_ = r.f64();
        sincePeak_ = static_cast<int>(r.u32());
        scanned_ = r.i64();
        w1_.clear();
        uint64_t nw = r.u64();
        for (uint64_t i = 0; i < nw; ++i) {
            double re = r.f64();
            double im = r.f64();
            w1_.emplace_back(re, im);
        }
        done_ = r.u8() != 0;
        ctrl_ = r.blob();
    }

  private:
    double
    corrRatio() const
    {
        const auto& lts = ltsSymbol();
        std::complex<double> c{0.0, 0.0};
        double e = 1e-9;
        double el = 1e-9;
        for (int t = 0; t < 64; ++t) {
            std::complex<double> r = ring_[static_cast<size_t>(t)];
            std::complex<double> l(lts[static_cast<size_t>(t)].re,
                                   lts[static_cast<size_t>(t)].im);
            c += r * std::conj(l);
            e += std::norm(r);
            el += std::norm(l);
        }
        return std::norm(c) / (e * el);
    }

    void
    estimate(const std::vector<std::complex<double>>& w2)
    {
        // Average the two symbols, FFT, divide by the known sequence.
        Complex16 avg[fftSize];
        for (int t = 0; t < fftSize; ++t) {
            std::complex<double> m =
                (w1_[static_cast<size_t>(t)] + w2[static_cast<size_t>(t)]) *
                0.5;
            avg[t].re = static_cast<int16_t>(
                std::lround(std::clamp(m.real(), -32768.0, 32767.0)));
            avg[t].im = static_cast<int16_t>(
                std::lround(std::clamp(m.imag(), -32768.0, 32767.0)));
        }
        Complex16 bins[fftSize];
        fft64().forward(avg, bins);

        // Reference amplitude of a clean LTS carrier.
        static const double refAmp = [] {
            Complex16 ref[fftSize];
            fft64().forward(ltsSymbol().data(), ref);
            const auto& L = ltsFreq();
            double acc = 0.0;
            int cnt = 0;
            for (int k = 0; k < fftSize; ++k) {
                if (L[static_cast<size_t>(k)] != 0) {
                    acc += std::hypot(static_cast<double>(ref[k].re),
                                      static_cast<double>(ref[k].im));
                    ++cnt;
                }
            }
            return acc / cnt;
        }();

        const auto& L = ltsFreq();
        ctrl_.assign(fftSize * 4, 0);
        for (int k = 0; k < fftSize; ++k) {
            if (L[static_cast<size_t>(k)] == 0)
                continue;
            std::complex<double> h(bins[k].re, bins[k].im);
            h *= static_cast<double>(L[static_cast<size_t>(k)]);
            double mag2 = std::norm(h);
            if (mag2 < 1.0)
                continue;
            std::complex<double> inv =
                std::conj(h) * (refAmp * 4096.0 / mag2);
            Complex16 q;
            q.re = static_cast<int16_t>(
                std::lround(std::clamp(inv.real(), -32768.0, 32767.0)));
            q.im = static_cast<int16_t>(
                std::lround(std::clamp(inv.imag(), -32768.0, 32767.0)));
            std::memcpy(ctrl_.data() + 4 * k, &q, 4);
        }
    }

    /** Samples to scan for the LTS before giving up (a CCA trigger is
     *  at most ~160 STS samples + 160 LTS samples from the peak). */
    static constexpr long kScanBudget = 4096;

    std::deque<std::complex<double>> ring_;
    long n_ = 0;
    long peakN_ = -1;
    long peakCandidateN_ = -1;
    double bestRatio_ = 0.0;
    int sincePeak_ = 0;
    long scanned_ = 0;
    std::vector<std::complex<double>> w1_;
    bool done_ = false;
    std::vector<uint8_t> ctrl_;
};

} // namespace

std::shared_ptr<const NativeBlockSpec>
specLts()
{
    static auto spec = [] {
        auto s = std::make_shared<NativeBlockSpec>();
        s->name = "LTS";
        s->ctype = CompType{true, symbolArrayType(), Type::complex16(),
                            nullptr};
        s->make = [](const std::vector<Value>&) {
            auto k = std::make_unique<LtsKernel>();
            k->reset();
            return k;
        };
        return s;
    }();
    return spec;
}

// ------------------------------------------------------ Pilot tracking

namespace {

class PilotTrackKernel : public NativeKernel
{
  public:
    void
    reset() override
    {
        sym_ = 0;
    }

    bool
    consume(const uint8_t* in, Emitter& em) override
    {
        Complex16 bins[fftSize];
        std::memcpy(bins, in, sizeof(bins));

        double pol = pilotPolarity(sym_) ? 1.0 : -1.0;
        std::complex<double> acc{0.0, 0.0};
        for (int j = 0; j < numPilots; ++j) {
            const Complex16& y = bins[pilotBins()[j]];
            double expectSign = pol * pilotValues()[j];
            acc += std::complex<double>(y.re, y.im) * expectSign;
        }
        double theta = std::arg(acc);
        std::complex<double> rot(std::cos(-theta), std::sin(-theta));
        for (int k = 0; k < fftSize; ++k) {
            std::complex<double> v(bins[k].re, bins[k].im);
            v *= rot;
            bins[k].re = static_cast<int16_t>(
                std::lround(std::clamp(v.real(), -32768.0, 32767.0)));
            bins[k].im = static_cast<int16_t>(
                std::lround(std::clamp(v.imag(), -32768.0, 32767.0)));
        }
        ++sym_;
        em.emit(reinterpret_cast<const uint8_t*>(bins));
        return false;
    }

    void
    snapshot(StateWriter& w) const override
    {
        w.u32(static_cast<uint32_t>(sym_));
    }

    void
    restore(StateReader& r) override
    {
        sym_ = static_cast<int>(r.u32());
    }

  private:
    int sym_ = 0;
};

} // namespace

std::shared_ptr<const NativeBlockSpec>
specPilotTrack()
{
    static auto spec = [] {
        auto s = std::make_shared<NativeBlockSpec>();
        s->name = "PilotTrack";
        s->ctype = CompType{false, nullptr, symbolArrayType(),
                            symbolArrayType()};
        s->make = [](const std::vector<Value>&) {
            auto k = std::make_unique<PilotTrackKernel>();
            k->reset();
            return k;
        };
        return s;
    }();
    return spec;
}

// -------------------------------------------------------- SIGNAL decode

namespace {

class SignalDecodeKernel : public NativeKernel
{
  public:
    void
    reset() override
    {
        bits_.clear();
        done_ = false;
    }

    bool
    consume(const uint8_t* in, Emitter&) override
    {
        if (done_)
            return true;
        bits_.push_back(*in & 1);
        if (bits_.size() < 48)
            return false;

        dsp::ViterbiDecoder dec;
        std::vector<uint8_t> decoded;
        for (int i = 0; i < 24; ++i)
            dec.inputPair(bits_[static_cast<size_t>(2 * i)],
                          bits_[static_cast<size_t>(2 * i + 1)], decoded);
        dec.flush(decoded);
        SignalInfo si = parseSignal(decoded);
        // Receiver policy on top of the spec-level parse: an implausible
        // LENGTH (e.g. 4095 from decoding noise) would commit the chain
        // to a phantom multi-thousand-byte DATA field.
        bool accept = si.valid && psduLenPlausible(si.length);
        if (!accept) {
            auto& reg = metrics::Registry::global();
            reg.counter("wifi.rx.header_drops").inc();
            reg.counter("wifi.rx.resyncs").inc();
        }

        ctrl_.assign(16, 0);
        const RateInfo& ri = rateInfo(si.rate);
        int32_t mod = modCode(ri.modulation);
        int32_t cod = codCode(ri.coding);
        int32_t len = si.length;
        int32_t valid = accept ? 1 : 0;
        std::memcpy(ctrl_.data() + 0, &mod, 4);
        std::memcpy(ctrl_.data() + 4, &cod, 4);
        std::memcpy(ctrl_.data() + 8, &len, 4);
        std::memcpy(ctrl_.data() + 12, &valid, 4);
        done_ = true;
        return true;
    }

    const std::vector<uint8_t>& ctrl() const override { return ctrl_; }

    void
    snapshot(StateWriter& w) const override
    {
        w.blob(bits_.data(), bits_.size());
        w.u8(done_ ? 1 : 0);
        w.blob(ctrl_.data(), ctrl_.size());
    }

    void
    restore(StateReader& r) override
    {
        bits_ = r.blob();
        done_ = r.u8() != 0;
        ctrl_ = r.blob();
    }

  private:
    std::vector<uint8_t> bits_;
    bool done_ = false;
    std::vector<uint8_t> ctrl_;
};

} // namespace

std::shared_ptr<const NativeBlockSpec>
specSignalDecode()
{
    static auto spec = [] {
        auto s = std::make_shared<NativeBlockSpec>();
        s->name = "SignalDecode";
        s->ctype = CompType{true, headerInfoType(), Type::bit(), nullptr};
        s->make = [](const std::vector<Value>&) {
            auto k = std::make_unique<SignalDecodeKernel>();
            k->reset();
            return k;
        };
        return s;
    }();
    return spec;
}

void
registerWifiNatives()
{
    registerNativeBlock("FFT", specFft());
    registerNativeBlock("IFFT", specIfft());
    registerNativeBlock("Viterbi", specViterbi());
    registerNativeBlock("CCA", specCca());
    registerNativeBlock("LTS", specLts());
    registerNativeBlock("PilotTrack", specPilotTrack());
    registerNativeBlock("SignalDecode", specSignalDecode());
}

} // namespace wifi
} // namespace ziria
