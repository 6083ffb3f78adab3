#include "vir/verifier.hh"

#include <set>
#include <sstream>

#include "sim/log.hh"

namespace vg::vir
{

std::string
VerifyResult::message() const
{
    std::ostringstream os;
    for (const auto &e : errors)
        os << e << "\n";
    return os.str();
}

namespace
{

/** Per-instruction register, target and symbol validation. @p defined
 *  names every function the module defines. */
void
checkInst(const Function &fn, const BasicBlock &bb, size_t idx,
          const Inst &inst, const std::set<std::string> &defined,
          std::vector<std::string> &errors)
{
    auto err = [&](const std::string &what) {
        errors.push_back(sim::strprintf(
            "%s/%s[%zu] %s: %s", fn.name.c_str(), bb.name.c_str(), idx,
            opcodeName(inst.op), what.c_str()));
    };

    auto check_reg = [&](int reg, const char *role, bool required) {
        if (reg < 0) {
            if (required)
                err(std::string("missing ") + role + " register");
            return;
        }
        if (reg >= fn.numRegs)
            err(sim::strprintf("%s register %%%d out of range (%d regs)",
                               role, reg, fn.numRegs));
    };

    auto check_target = [&](int target, const char *role) {
        if (target < 0 || size_t(target) >= fn.blocks.size())
            err(sim::strprintf("bad %s block index %d", role, target));
    };

    switch (inst.op) {
      case Opcode::ConstI:
        check_reg(inst.dst, "dst", true);
        break;
      case Opcode::Mov:
        check_reg(inst.dst, "dst", true);
        check_reg(inst.a, "src", true);
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::UDiv:
      case Opcode::URem:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::LShr:
      case Opcode::AShr:
      case Opcode::ICmp:
        check_reg(inst.dst, "dst", true);
        check_reg(inst.a, "lhs", true);
        check_reg(inst.b, "rhs", true);
        break;
      case Opcode::Load:
        check_reg(inst.dst, "dst", true);
        check_reg(inst.a, "addr", true);
        break;
      case Opcode::Store:
        check_reg(inst.a, "addr", true);
        check_reg(inst.b, "value", true);
        break;
      case Opcode::Memcpy:
        check_reg(inst.a, "dst-addr", true);
        check_reg(inst.b, "src-addr", true);
        check_reg(inst.c, "len", true);
        break;
      case Opcode::Alloca:
        check_reg(inst.dst, "dst", true);
        if (inst.imm == 0 || inst.imm > (1 << 20))
            err("alloca size must be in (0, 1 MB]");
        break;
      case Opcode::Br:
        check_target(inst.target0, "branch");
        break;
      case Opcode::CondBr:
        check_reg(inst.a, "cond", true);
        check_target(inst.target0, "then");
        check_target(inst.target1, "else");
        break;
      case Opcode::Call:
        check_reg(inst.dst, "dst", true);
        if (inst.callee.empty())
            err("call without callee symbol");
        for (int arg : inst.args)
            check_reg(arg, "arg", true);
        break;
      case Opcode::CallInd:
        check_reg(inst.dst, "dst", true);
        check_reg(inst.a, "target", true);
        for (int arg : inst.args)
            check_reg(arg, "arg", true);
        break;
      case Opcode::FuncAddr:
        check_reg(inst.dst, "dst", true);
        // Its address is laid out from the module's own functions; a
        // symbol the module does not define has no address to take.
        if (inst.callee.empty())
            err("funcaddr without callee symbol");
        else if (!defined.count(inst.callee))
            err("funcaddr of undefined function @" + inst.callee);
        break;
      case Opcode::Ret:
        check_reg(inst.a, "value", false);
        break;
    }

    bool last = idx + 1 == bb.insts.size();
    if (isTerminator(inst.op) && !last)
        err("terminator in the middle of a block");
    if (!isTerminator(inst.op) && last)
        err("block does not end in a terminator");
}

/** The register @p inst writes, or -1. */
int
defRegOf(const Inst &inst)
{
    switch (inst.op) {
      case Opcode::Store:
      case Opcode::Memcpy:
      case Opcode::Br:
      case Opcode::CondBr:
      case Opcode::Ret:
        return -1;
      default:
        return inst.dst;
    }
}

/** Registers @p inst reads, in operand order. */
void
usedRegsOf(const Inst &inst, std::vector<int> &out)
{
    out.clear();
    switch (inst.op) {
      case Opcode::ConstI:
      case Opcode::Alloca:
      case Opcode::FuncAddr:
      case Opcode::Br:
        break;
      case Opcode::Mov:
        out.push_back(inst.a);
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::UDiv:
      case Opcode::URem:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::LShr:
      case Opcode::AShr:
      case Opcode::ICmp:
        out.push_back(inst.a);
        out.push_back(inst.b);
        break;
      case Opcode::Load:
      case Opcode::CondBr:
        out.push_back(inst.a);
        break;
      case Opcode::Store:
        out.push_back(inst.a);
        out.push_back(inst.b);
        break;
      case Opcode::Memcpy:
        out.push_back(inst.a);
        out.push_back(inst.b);
        out.push_back(inst.c);
        break;
      case Opcode::Call:
        break;
      case Opcode::CallInd:
        out.push_back(inst.a);
        break;
      case Opcode::Ret:
        if (inst.a >= 0)
            out.push_back(inst.a);
        break;
    }
    for (int arg : inst.args)
        out.push_back(arg);
}

/**
 * Forward definite-definition dataflow over the block CFG: a register
 * use is legal only when a definition dominates it (parameters count as
 * defined at entry). The abstract state is the set of registers defined
 * on *every* path, so the meet at join points is intersection;
 * unreachable blocks are skipped. Errors come out in block order then
 * instruction order, after the structural errors for the function, so
 * diagnostics are stable across runs.
 *
 * Only called for functions whose registers are all in range.
 */
void
checkDominance(const Function &fn, std::vector<std::string> &errors)
{
    const size_t nb = fn.blocks.size();
    const size_t nr = size_t(fn.numRegs);
    std::vector<std::vector<char>> in(nb);
    std::vector<char> reached(nb, 0);

    in[0].assign(nr, 0);
    for (int p = 0; p < fn.numParams; p++)
        in[0][size_t(p)] = 1;
    reached[0] = 1;

    auto successors = [&](size_t b, int out[2]) -> int {
        if (fn.blocks[b].insts.empty())
            return 0;
        const Inst &last = fn.blocks[b].insts.back();
        int cnt = 0;
        auto push = [&](int t) {
            if (t >= 0 && size_t(t) < nb)
                out[cnt++] = t;
        };
        if (last.op == Opcode::Br)
            push(last.target0);
        else if (last.op == Opcode::CondBr) {
            push(last.target0);
            push(last.target1);
        }
        return cnt;
    };

    std::vector<size_t> work{0};
    std::vector<int> uses;
    while (!work.empty()) {
        size_t b = work.back();
        work.pop_back();
        std::vector<char> state = in[b];
        for (const Inst &inst : fn.blocks[b].insts) {
            int d = defRegOf(inst);
            if (d >= 0)
                state[size_t(d)] = 1;
        }
        int succ[2];
        int cnt = successors(b, succ);
        for (int k = 0; k < cnt; k++) {
            size_t s = size_t(succ[k]);
            bool changed = false;
            if (!reached[s]) {
                in[s] = state;
                reached[s] = 1;
                changed = true;
            } else {
                for (size_t r = 0; r < nr; r++) {
                    if (in[s][r] && !state[r]) {
                        in[s][r] = 0;
                        changed = true;
                    }
                }
            }
            if (changed)
                work.push_back(s);
        }
    }

    for (size_t b = 0; b < nb; b++) {
        if (!reached[b])
            continue;
        std::vector<char> cur = in[b];
        const BasicBlock &bb = fn.blocks[b];
        for (size_t i = 0; i < bb.insts.size(); i++) {
            const Inst &inst = bb.insts[i];
            usedRegsOf(inst, uses);
            for (int reg : uses) {
                if (reg >= 0 && !cur[size_t(reg)])
                    errors.push_back(sim::strprintf(
                        "%s/%s[%zu] %s: register %%%d used before any "
                        "dominating definition",
                        fn.name.c_str(), bb.name.c_str(), i,
                        opcodeName(inst.op), reg));
            }
            int d = defRegOf(inst);
            if (d >= 0)
                cur[size_t(d)] = 1;
        }
    }
}

} // namespace

VerifyResult
verify(const Module &mod)
{
    VerifyResult result;
    std::set<std::string> defined;
    for (const auto &fn : mod.functions)
        defined.insert(fn.name);
    std::set<std::string> names;

    for (const auto &fn : mod.functions) {
        const size_t before = result.errors.size();
        if (fn.name.empty()) {
            result.errors.push_back("function with empty name");
            continue;
        }
        if (!names.insert(fn.name).second)
            result.errors.push_back("duplicate function " + fn.name);
        if (fn.numParams > fn.numRegs)
            result.errors.push_back(fn.name +
                                    ": more params than registers");
        if (fn.blocks.empty()) {
            result.errors.push_back(fn.name + ": no basic blocks");
            continue;
        }
        std::set<std::string> block_names;
        for (const auto &bb : fn.blocks) {
            if (!block_names.insert(bb.name).second)
                result.errors.push_back(fn.name + ": duplicate block " +
                                        bb.name);
            if (bb.insts.empty()) {
                result.errors.push_back(fn.name + "/" + bb.name +
                                        ": empty block");
                continue;
            }
            for (size_t i = 0; i < bb.insts.size(); i++)
                checkInst(fn, bb, i, bb.insts[i], defined,
                          result.errors);
        }
        // Dominance needs in-range registers (the bitsets index by
        // register number), so it only runs on structurally clean
        // functions; its errors follow the structural ones, keeping
        // the overall ordering stable.
        if (result.errors.size() == before)
            checkDominance(fn, result.errors);
    }
    return result;
}

} // namespace vg::vir
