/**
 * @file
 * A loadable TinyAlpha program: code, initial data image, entry point.
 *
 * Internally the simulator addresses code by instruction index; register
 * values holding code addresses (return addresses, jump tables) use byte
 * addresses `codeBase + 4 * index`, so computed control flow works like on
 * a real machine.
 *
 * The data image is held as 4 KiB pages, the same page map a MemImage
 * starts from and an ArchCheckpoint captures. Pages are shared, never
 * written in place once in a map: copies of a Program share them, and
 * every run's memory starts by sharing the program's pages
 * copy-on-write.
 */

#ifndef RBSIM_ISA_PROGRAM_HH
#define RBSIM_ISA_PROGRAM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "isa/inst.hh"

namespace rbsim
{

constexpr unsigned pageShift = 12;
constexpr Addr pageSize = Addr{1} << pageShift;
using Page = std::array<std::uint8_t, pageSize>;

/**
 * Page number -> page: a program's data image, a checkpoint's memory,
 * and the start of every MemImage. Holders share pages copy-on-write; a
 * page in a map is never written in place (a writer installs a modified
 * copy), so one page can be read from any thread.
 */
using PageMap = std::unordered_map<Addr, std::shared_ptr<Page>>;

/** The entries of `pages` in ascending page-number order. */
std::vector<const PageMap::value_type *> pagesInOrder(const PageMap &pages);

/** A complete program image. */
struct Program
{
    std::string name = "program";
    std::vector<Inst> code;
    Addr codeBase = 0x10000;
    std::uint64_t entry = 0; //!< entry instruction index
    //! The initial memory: every page a data write touched, zero
    //! elsewhere. Later writes win byte by byte.
    PageMap image;

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

    /** Write 64-bit little-endian words into the image from `base`. */
    void addDataWords(Addr base, const std::vector<Word> &words);

    /** Write raw bytes into the image from `base`. Each page the write
     * touches is replaced by a modified copy (or allocated zeroed), so
     * other copies of this Program keep theirs. */
    void addDataBytes(Addr base, std::vector<std::uint8_t> bytes);

    /**
     * Stable 64-bit content hash over everything that affects execution:
     * every instruction field, the code base, the entry point, and the
     * nonzero bytes of the data image (memory starts zeroed, so how the
     * image was written — one builder call or per-line `.quad`
     * directives, zero padding — is not content). The `name` is
     * deliberately excluded — two routes to the same image (assembler vs
     * CodeBuilder, or a disassemble/assemble round trip) hash equal, and
     * any single-instruction or single-byte mutation hashes different
     * with overwhelming probability. The serve result cache keys on this
     * (docs/SERVING.md). Linear in instructions and image bytes.
     */
    std::uint64_t hash() const;

    /**
     * Exact content equality, the check that lets a holder of a
     * program and its hash skip re-hashing an equal one: code, code
     * base, entry, and the image page by page (a shared page compares
     * by pointer). Equal content means equal hash(); the converse does
     * not hold (an all-zero page and no page compare unequal, which only
     * costs a re-hash). The `name` is not content.
     */
    bool sameContent(const Program &other) const;
};

} // namespace rbsim

#endif // RBSIM_ISA_PROGRAM_HH
