#include "zexpr/natives.h"

#include "zcgen/runtime.h"

namespace ziria {
namespace natives {

namespace {

struct Param
{
    const char* name;
    TypePtr (*type)();
};

/** One built-in: surface name, parameters, return type, runtime body. */
struct Builtin
{
    const char* name;
    std::vector<Param> params;
    TypePtr (*ret)();
    void (*body)(const uint8_t* const* args, uint8_t* ret);
};

} // namespace

const std::vector<FunRef>&
builtins()
{
    static const std::vector<FunRef> funs = [] {
        const Builtin table[] = {
            {"sin", {{"x", Type::real}}, Type::real, &zr_nat_sin},
            {"cos", {{"x", Type::real}}, Type::real, &zr_nat_cos},
            {"sqrt", {{"x", Type::real}}, Type::real, &zr_nat_sqrt},
            {"exp", {{"x", Type::real}}, Type::real, &zr_nat_exp},
            {"log", {{"x", Type::real}}, Type::real, &zr_nat_log},
            {"atan2", {{"y", Type::real}, {"x", Type::real}}, Type::real,
             &zr_nat_atan2},
            {"cmul16",
             {{"a", Type::complex16}, {"b", Type::complex16},
              {"shift", Type::int32}},
             Type::complex16, &zr_nat_cmul16},
            {"cmul_conj16",
             {{"a", Type::complex16}, {"b", Type::complex16},
              {"shift", Type::int32}},
             Type::complex16, &zr_nat_cmul_conj16},
            {"cabs2", {{"a", Type::complex16}}, Type::int32, &zr_nat_cabs2},
            {"conj16", {{"a", Type::complex16}}, Type::complex16,
             &zr_nat_conj16},
            {"cadd32", {{"a", Type::complex32}, {"b", Type::complex32}},
             Type::complex32, &zr_nat_cadd32},
            {"sat16", {{"v", Type::int32}}, Type::int16, &zr_nat_sat16},
            {"creal", {{"a", Type::complex16}}, Type::int16, &zr_nat_creal},
            {"cimag", {{"a", Type::complex16}}, Type::int16, &zr_nat_cimag},
            {"mk_complex16", {{"re", Type::int16}, {"im", Type::int16}},
             Type::complex16, &zr_nat_mk_complex16},
        };
        std::vector<FunRef> out;
        for (const Builtin& b : table) {
            std::vector<VarRef> params;
            for (const Param& p : b.params)
                params.push_back(freshVar(p.name, p.type()));
            out.push_back(makeNativeFun(b.name, std::move(params),
                                        b.ret(), b.body));
        }
        return out;
    }();
    return funs;
}

FunRef
lookup(const std::string& name)
{
    for (const FunRef& f : builtins())
        if (f->name == name)
            return f;
    return nullptr;
}

} // namespace natives
} // namespace ziria
