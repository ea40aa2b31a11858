/**
 * @file
 * A loadable TinyAlpha program: code, initial data image, entry point.
 *
 * Internally the simulator addresses code by instruction index; register
 * values holding code addresses (return addresses, jump tables) use byte
 * addresses `codeBase + 4 * index`, so computed control flow works like on
 * a real machine.
 */

#ifndef RBSIM_ISA_PROGRAM_HH
#define RBSIM_ISA_PROGRAM_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "isa/inst.hh"

namespace rbsim
{

/** A contiguous chunk of initialized data. */
struct DataSegment
{
    Addr base = 0;
    std::vector<std::uint8_t> bytes;

    bool operator==(const DataSegment &other) const = default;
};

/** A complete program image. */
struct Program
{
    std::string name = "program";
    std::vector<Inst> code;
    Addr codeBase = 0x10000;
    std::uint64_t entry = 0; //!< entry instruction index
    std::vector<DataSegment> data;

    /** Byte address of an instruction index. */
    Addr
    byteAddrOf(std::uint64_t index) const
    {
        return codeBase + 4 * index;
    }

    /** Instruction index of a code byte address. */
    std::uint64_t
    indexOf(Addr byte_addr) const
    {
        return (byte_addr - codeBase) / 4;
    }

    /** True if the byte address falls inside the code image. */
    bool
    isCodeAddr(Addr byte_addr) const
    {
        return byte_addr >= codeBase &&
               byte_addr < codeBase + 4 * code.size() &&
               (byte_addr & 3) == 0;
    }

    /** Append a data segment initialized with 64-bit little-endian words. */
    void addDataWords(Addr base, const std::vector<Word> &words);

    /** Append a raw byte segment. */
    void addDataBytes(Addr base, std::vector<std::uint8_t> bytes);

    /**
     * Stable 64-bit content hash over everything that affects execution:
     * every instruction field, the code base, the entry point, and the
     * *effective* initial data image (memory starts zeroed, so segment
     * boundaries and zero padding are construction artifacts, not
     * content). The `name` is deliberately excluded — two routes to the
     * same image (assembler vs CodeBuilder, or a disassemble/assemble
     * round trip) hash equal, and any single-instruction or single-byte
     * mutation hashes different with overwhelming probability. The
     * serve result cache keys on this (docs/SERVING.md). Linear in
     * instructions, segments and data bytes.
     */
    std::uint64_t hash() const;

    /**
     * Exact content equality, the check that lets a holder of a
     * program and its hash skip re-hashing an equal one: code, code
     * base, entry, and the data segments as listed. Equal content means
     * equal hash(); the converse does not hold (two segmentations of
     * one image compare unequal, which only costs a re-hash). The
     * `name` is not content.
     */
    bool
    sameContent(const Program &other) const
    {
        return codeBase == other.codeBase && entry == other.entry &&
               code == other.code && data == other.data;
    }
};

} // namespace rbsim

#endif // RBSIM_ISA_PROGRAM_HH
