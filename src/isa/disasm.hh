/**
 * @file
 * Disassembler: renders decoded instructions back to assembler syntax.
 */

#ifndef RBSIM_ISA_DISASM_HH
#define RBSIM_ISA_DISASM_HH

#include <string>

#include "isa/inst.hh"
#include "isa/program.hh"

namespace rbsim
{

/**
 * Render one instruction. Branch displacements are shown as absolute
 * instruction indices when the instruction's own index is supplied.
 * @param inst the instruction
 * @param index its position in the code (for branch target resolution);
 *        pass ~0ull to print raw displacements
 */
std::string disassemble(const Inst &inst, std::uint64_t index = ~0ull);

/**
 * Render a whole program as an assembler-compatible listing: `.name` /
 * `.entry` directives, `Lk:` labels at every branch target, and the
 * data image in address order as `.org` + `.quad` lines. The output
 * re-assembles (via assemble()) into a program with identical code,
 * entry point, and data image — the same resident pages holding the
 * same bytes — the round trip the fuzzer's repro corpus depends on, and
 * it is tested.
 *
 * The image renders as aligned 8-byte words, zero words left out
 * (memory starts zeroed); an all-zero page renders one `.quad 0` so it
 * stays resident.
 */
std::string disassembleProgram(const Program &prog);

} // namespace rbsim

#endif // RBSIM_ISA_DISASM_HH
