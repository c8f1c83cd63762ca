#include "wifi/blocks_rx.h"

#include <cstring>

#include "support/metrics.h"
#include "support/panic.h"
#include "zexpr/natives.h"

namespace ziria {
namespace wifi {

using namespace zb;

CompPtr
downSampleBlock()
{
    VarRef x = freshVar("x", Type::complex16());
    return repeatc(seqc({bindc(x, take(Type::complex16())),
                         just(take(Type::complex16())),
                         just(emit(var(x)))}));
}

CompPtr
removeDcBlock()
{
    VarRef dc = freshVar("dc", Type::complex16());
    VarRef x = freshVar("x", Type::complex16());
    return letvar(
        dc, nullptr,
        repeatc(seqc(
            {bindc(x, take(Type::complex16())),
             just(doS({assign(var(dc),
                              var(dc) + ((var(x) - var(dc)) >> 5))})),
             just(emit(var(x) - var(dc)))})));
}

CompPtr
dataSymbolBlock()
{
    VarRef s = freshVar("raw", Type::array(Type::complex16(), symLen));
    return repeatc(seqc({bindc(s, takes(Type::complex16(), symLen)),
                         just(emit(slice(var(s), cpLen, fftSize)))}));
}

CompPtr
demapLimitBlock()
{
    const int16_t lim = 4000;
    VarRef x = freshVar("x", Type::complex16());
    VarRef re = freshVar("re", Type::int16());
    VarRef im = freshVar("im", Type::int16());
    auto clamp = [&](ExprPtr v) {
        return cond(v > lit(Type::int16(), lim), cI16(lim),
                    cond(mkBin(BinOp::Lt, v,
                               lit(Type::int16(), -lim)),
                         cI16(static_cast<int16_t>(-lim)), v));
    };
    return repeatc(seqc(
        {bindc(x, take(Type::complex16())),
         just(doS(
             {sDecl(re, clamp(call(natives::lookup("creal"), {var(x)}))),
              sDecl(im, clamp(call(natives::lookup("cimag"), {var(x)})))})),
         just(emit(call(natives::lookup("mk_complex16"),
                        {var(re), var(im)})))}));
}

CompPtr
equalizerBlock(const VarRef& params)
{
    VarRef x = freshVar("bins", symbolArrayType());
    VarRef y = freshVar("eq", symbolArrayType());
    VarRef k = freshVar("k", Type::int32());
    return repeatc(seqc(
        {bindc(x, take(symbolArrayType())),
         just(doS({sDecl(y, nullptr),
                   sFor(k, cInt(0), cInt(fftSize),
                        {assign(idx(var(y), var(k)),
                                call(natives::lookup("cmul16"),
                                     {idx(var(x), var(k)),
                                      idx(var(params), var(k)),
                                      cInt(12)}))})})),
         just(emit(var(y)))}));
}

CompPtr
getDataBlock()
{
    VarRef s = freshVar("eqsym", symbolArrayType());
    std::vector<ExprPtr> outs;
    outs.reserve(numDataCarriers);
    for (int i = 0; i < numDataCarriers; ++i)
        outs.push_back(idx(var(s), dataCarrierBin(i)));
    return repeatc(seqc({bindc(s, take(symbolArrayType())),
                         just(emits(arrayLit(std::move(outs))))}));
}

namespace {

/** |v| < t, as an expression over int16. */
ExprPtr
absLess(ExprPtr v, int t)
{
    ExprPtr below = mkBin(BinOp::Lt, v, lit(Type::int16(), t));
    ExprPtr above = mkBin(BinOp::Gt, std::move(v), lit(Type::int16(), -t));
    return mkBin(BinOp::LAnd, std::move(below), std::move(above));
}

ExprPtr
boolToBit(ExprPtr b)
{
    return cond(std::move(b), cBit(1), cBit(0));
}

/** Scaled threshold: k * constellationScale / kmod, rounded. */
int
thr(dsp::Modulation m, int k)
{
    double km = m == dsp::Modulation::Qam16 ? std::sqrt(10.0)
                                            : std::sqrt(42.0);
    return static_cast<int>(k * dsp::constellationScale / km + 0.5);
}

} // namespace

CompPtr
demapperBlock(dsp::Modulation m)
{
    VarRef x = freshVar("pt", Type::complex16());
    VarRef re = freshVar("re", Type::int16());
    VarRef im = freshVar("im", Type::int16());
    StmtList decls{
        sDecl(re, call(natives::lookup("creal"), {var(x)})),
        sDecl(im, call(natives::lookup("cimag"), {var(x)})),
    };
    std::vector<ExprPtr> bits;
    ExprPtr zero = cI16(0);
    switch (m) {
      case dsp::Modulation::Bpsk:
        bits.push_back(boolToBit(mkBin(BinOp::Ge, var(re), zero)));
        break;
      case dsp::Modulation::Qpsk:
        bits.push_back(boolToBit(mkBin(BinOp::Ge, var(re), zero)));
        bits.push_back(boolToBit(mkBin(BinOp::Ge, var(im), zero)));
        break;
      case dsp::Modulation::Qam16: {
        // Gray axis levels {-3,-1,3,1}: b0 = |v| < 2u, b1 = v >= 0.
        int t2 = thr(m, 2);
        bits.push_back(boolToBit(absLess(var(re), t2)));
        bits.push_back(boolToBit(mkBin(BinOp::Ge, var(re), zero)));
        bits.push_back(boolToBit(absLess(var(im), t2)));
        bits.push_back(boolToBit(mkBin(BinOp::Ge, var(im), zero)));
        break;
      }
      default: {
        // Gray axis levels {-7,-5,-1,-3,7,5,1,3}:
        //   b0 = 2u < |v| < 6u, b1 = |v| < 4u, b2 = v >= 0.
        int t2 = thr(m, 2);
        int t4 = thr(m, 4);
        int t6 = thr(m, 6);
        auto midband = [&](const VarRef& v) {
            return mkBin(BinOp::LAnd, lnot(absLess(var(v), t2)),
                         absLess(var(v), t6));
        };
        bits.push_back(boolToBit(midband(re)));
        bits.push_back(boolToBit(absLess(var(re), t4)));
        bits.push_back(boolToBit(mkBin(BinOp::Ge, var(re), zero)));
        bits.push_back(boolToBit(midband(im)));
        bits.push_back(boolToBit(absLess(var(im), t4)));
        bits.push_back(boolToBit(mkBin(BinOp::Ge, var(im), zero)));
        break;
      }
    }
    return repeatc(seqc({bindc(x, take(Type::complex16())),
                         just(doS(std::move(decls))),
                         just(emits(arrayLit(std::move(bits))))}));
}

namespace {

/**
 * Identity on the CRC verdict, counting wifi.rx.crc_ok / crc_fail as a
 * side effect so long-running RX loops expose per-packet outcomes in
 * the metrics registry without any extra stream plumbing.
 */
FunRef
noteCrcFun()
{
    static FunRef f = makeNativeFun(
        "wifi_note_crc", {freshVar("ok", Type::int32())}, Type::int32(),
        [](const uint8_t* const* args, uint8_t* ret) {
            int32_t ok;
            std::memcpy(&ok, args[0], 4);
            metrics::Registry::global()
                .counter(ok ? "wifi.rx.crc_ok" : "wifi.rx.crc_fail")
                .inc();
            std::memcpy(ret, &ok, 4);
        });
    return f;
}

} // namespace

CompPtr
checkCrcBlock(const VarRef& h)
{
    VarRef crc = freshVar("crc", Type::int64());
    VarRef ok = freshVar("ok", Type::int32());
    VarRef x = freshVar("x", Type::bit());
    VarRef fb = freshVar("fb", Type::int64());
    VarRef i = freshVar("i", Type::int32());

    ExprPtr lenBytes = field(var(h), "len");

    // Skip the 16 SERVICE bits.
    CompPtr skipService = timesc(cInt(16), take(Type::bit()));

    // Forward the payload (len - 4 bytes) through the CRC register.
    CompPtr pass = timesc(
        mkBin(BinOp::Mul, cInt(8), lenBytes + cInt(-4)),
        seqc({bindc(x, take(Type::bit())),
              just(doS({sDecl(fb, (var(crc) ^
                                   cast(Type::int64(), var(x))) &
                                      1),
                        assign(var(crc), var(crc) >> 1),
                        sIf(var(fb) == 1,
                            {assign(var(crc),
                                    var(crc) ^ cI64(0xEDB88320ll))})})),
              just(emit(var(x)))}));

    // Compare and forward the 32 FCS bits.
    CompPtr fcs = seqc(
        {just(doS({assign(var(crc), var(crc) ^ cI64(0xFFFFFFFFll)),
                   assign(var(ok), cInt(1))})),
         just(timesc(
             cInt(32), i,
             seqc({bindc(x, take(Type::bit())),
                   just(doS({sIf(mkBin(BinOp::Ne,
                                       cast(Type::bit(),
                                            (var(crc) >>
                                             cast(Type::int64(),
                                                  var(i))) &
                                                1),
                                       var(x)),
                                 {assign(var(ok), cInt(0))})})),
                   just(emit(var(x)))})))});

    return letvar(
        crc, cI64(0xFFFFFFFFll),
        letvar(ok, cInt(0),
               seqc({just(std::move(skipService)), just(std::move(pass)),
                     just(std::move(fcs)),
                     just(ret(call(noteCrcFun(), {var(ok)})))})));
}

FunRef
totalBitsFun()
{
    // A plain Ziria function (not an opaque native), so generated code
    // computes the Viterbi's bit budget inline.  N_DBPS is looked up by
    // modulation code * 3 + coding code.
    static FunRef f = [] {
        std::vector<ExprPtr> ndbpsTable;
        for (int32_t m = kModBpsk; m <= kModQam64; ++m)
            for (int32_t c = kCod12; c <= kCod34; ++c) {
                dsp::CodingRate cr = codFromCode(c);
                int ncbps =
                    numDataCarriers * dsp::bitsPerSymbol(modFromCode(m));
                ndbpsTable.push_back(cInt(ncbps * dsp::rateNumerator(cr) /
                                          dsp::rateDenominator(cr)));
            }
        VarRef mod = freshVar("mod", Type::int32());
        VarRef cod = freshVar("cod", Type::int32());
        VarRef len = freshVar("len", Type::int32());
        auto ndbps = [&] {
            return idx(arrayLit(ndbpsTable), var(mod) * 3 + var(cod));
        };
        // SERVICE (16) + 8 * LENGTH + tail (6), padded to whole symbols.
        ExprPtr nd = var(len) * 8 + 22;
        return fun("wifi_total_bits", {mod, cod, len}, {},
                   (nd + ndbps() - 1) / ndbps() * ndbps());
    }();
    return f;
}

} // namespace wifi
} // namespace ziria
