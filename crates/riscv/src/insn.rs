//! [`Instruction`]: a decoded RV64 instruction that round-trips through its
//! 32-bit machine encoding.
//!
//! Construction is format-typed: each constructor accepts exactly the
//! operands its [`Format`] uses, validated at the boundary (register indices
//! through [`Gpr`]/[`Fpr`], immediates against their field widths, branch
//! and jump targets through [`BranchOffset`]/[`JumpOffset`]). A constructed
//! instruction therefore always encodes, and [`Instruction::decode`]
//! normalises a machine word back into the identical value, so
//! `decode(encode(i)) == i` holds for every instruction this crate can
//! build.

use crate::csr::CsrAddr;
use crate::imm::{fits_signed, fits_unsigned, sign_extend, BranchOffset, JumpOffset};
use crate::opcode::{Format, Opcode};
use crate::operands::Operands;
use crate::regs::{Fpr, Gpr, Reg};
use crate::{RiscvError, RoundingMode};

/// A decoded instruction: an [`Opcode`] plus its operands.
///
/// Operand fields are stored as raw 5-bit indices; their register class
/// (integer vs floating point) is a property of the opcode, exposed through
/// [`Opcode::rd_is_fpr`] and friends. The `imm` field holds the
/// sign-extended immediate for I/S/B/U/J-style formats, the shift amount
/// for shifts, the `pred`/`succ` bits for `fence` and the CSR address for
/// Zicsr opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    opcode: Opcode,
    rd: u8,
    rs1: u8,
    rs2: u8,
    rs3: u8,
    imm: i64,
    rm: Option<RoundingMode>,
    aq: bool,
    rl: bool,
}

fn check_format(opcode: Opcode, want: Format) -> Result<(), RiscvError> {
    if opcode.format() == want {
        Ok(())
    } else {
        Err(RiscvError::MalformedOperands {
            mnemonic: opcode.mnemonic(),
            detail: "opcode does not use this instruction format",
        })
    }
}

fn assert_format(opcode: Opcode, want: Format) {
    assert_eq!(
        opcode.format(),
        want,
        "{} is not a {want}-format opcode",
        opcode.mnemonic()
    );
}

impl Instruction {
    fn raw(opcode: Opcode) -> Self {
        Instruction {
            opcode,
            rd: 0,
            rs1: 0,
            rs2: 0,
            rs3: 0,
            imm: 0,
            rm: None,
            aq: false,
            rl: false,
        }
    }

    /// The canonical no-op, `addi x0, x0, 0`.
    #[must_use]
    pub fn nop() -> Self {
        Self::raw(Opcode::Addi)
    }

    /// Build an integer register-register instruction (`add`, `sub`, `mul`,
    /// …).
    ///
    /// # Panics
    ///
    /// Panics when `opcode` is not an R-format opcode; passing a
    /// non-R-format opcode is a programming error, not an input error.
    #[must_use]
    pub fn r_type(opcode: Opcode, rd: Gpr, rs1: Gpr, rs2: Gpr) -> Self {
        assert_format(opcode, Format::R);
        Instruction {
            rd: rd.index(),
            rs1: rs1.index(),
            rs2: rs2.index(),
            ..Self::raw(opcode)
        }
    }

    /// Build a register-immediate instruction, a load or `jalr`.
    ///
    /// # Errors
    ///
    /// Returns [`RiscvError::ImmediateOutOfRange`] when `imm` does not fit
    /// in 12 signed bits and [`RiscvError::MalformedOperands`] when the
    /// opcode is not I-format.
    pub fn i_type(opcode: Opcode, rd: Gpr, rs1: Gpr, imm: i64) -> Result<Self, RiscvError> {
        check_format(opcode, Format::I)?;
        if !fits_signed(imm, 12) {
            return Err(RiscvError::ImmediateOutOfRange {
                mnemonic: opcode.mnemonic(),
                value: imm,
                bits: 12,
            });
        }
        Ok(Instruction {
            rd: rd.index(),
            rs1: rs1.index(),
            imm,
            ..Self::raw(opcode)
        })
    }

    /// Build a constant shift (`slli`/`srli`/`srai` and their `w`
    /// variants).
    ///
    /// # Errors
    ///
    /// Returns [`RiscvError::ImmediateOutOfRange`] when the shift amount
    /// does not fit (6 bits for 64-bit shifts, 5 bits for word shifts) and
    /// [`RiscvError::MalformedOperands`] for non-shift opcodes.
    pub fn shift(opcode: Opcode, rd: Gpr, rs1: Gpr, shamt: u8) -> Result<Self, RiscvError> {
        let bits = match opcode.format() {
            Format::Shamt => 6,
            Format::ShamtW => 5,
            _ => {
                return Err(RiscvError::MalformedOperands {
                    mnemonic: opcode.mnemonic(),
                    detail: "opcode does not use this instruction format",
                })
            }
        };
        if !fits_unsigned(u64::from(shamt), bits) {
            return Err(RiscvError::ImmediateOutOfRange {
                mnemonic: opcode.mnemonic(),
                value: i64::from(shamt),
                bits,
            });
        }
        Ok(Instruction {
            rd: rd.index(),
            rs1: rs1.index(),
            imm: i64::from(shamt),
            ..Self::raw(opcode)
        })
    }

    /// Build an integer store.
    ///
    /// # Errors
    ///
    /// Returns [`RiscvError::ImmediateOutOfRange`] when `imm` does not fit
    /// in 12 signed bits and [`RiscvError::MalformedOperands`] when the
    /// opcode is not S-format.
    pub fn s_type(opcode: Opcode, rs1: Gpr, rs2: Gpr, imm: i64) -> Result<Self, RiscvError> {
        check_format(opcode, Format::S)?;
        if !fits_signed(imm, 12) {
            return Err(RiscvError::ImmediateOutOfRange {
                mnemonic: opcode.mnemonic(),
                value: imm,
                bits: 12,
            });
        }
        Ok(Instruction {
            rs1: rs1.index(),
            rs2: rs2.index(),
            imm,
            ..Self::raw(opcode)
        })
    }

    /// Build a conditional branch. The offset is pre-validated by
    /// [`BranchOffset`].
    ///
    /// # Panics
    ///
    /// Panics when `opcode` is not a B-format opcode.
    #[must_use]
    pub fn b_type(opcode: Opcode, rs1: Gpr, rs2: Gpr, offset: BranchOffset) -> Self {
        assert_format(opcode, Format::B);
        Instruction {
            rs1: rs1.index(),
            rs2: rs2.index(),
            imm: offset.value(),
            ..Self::raw(opcode)
        }
    }

    /// Build an upper-immediate instruction (`lui`, `auipc`).
    ///
    /// `imm` is the 20-bit value placed in bits 31:12; both signed
    /// (`-0x80000..0x80000`) and unsigned (`0..0x100000`) spellings are
    /// accepted and normalised to the sign-extended form that
    /// [`Instruction::decode`] produces.
    ///
    /// # Errors
    ///
    /// Returns [`RiscvError::ImmediateOutOfRange`] when `imm` does not fit
    /// in 20 bits and [`RiscvError::MalformedOperands`] when the opcode is
    /// not U-format.
    pub fn u_type(opcode: Opcode, rd: Gpr, imm: i64) -> Result<Self, RiscvError> {
        check_format(opcode, Format::U)?;
        let unsigned_ok = imm >= 0 && fits_unsigned(imm.unsigned_abs(), 20);
        if !fits_signed(imm, 20) && !unsigned_ok {
            return Err(RiscvError::ImmediateOutOfRange {
                mnemonic: opcode.mnemonic(),
                value: imm,
                bits: 20,
            });
        }
        Ok(Instruction {
            rd: rd.index(),
            imm: sign_extend((imm as u64) & 0xF_FFFF, 20),
            ..Self::raw(opcode)
        })
    }

    /// Build a `jal`. The offset is pre-validated by [`JumpOffset`].
    ///
    /// # Panics
    ///
    /// Panics when `opcode` is not a J-format opcode.
    #[must_use]
    pub fn j_type(opcode: Opcode, rd: Gpr, offset: JumpOffset) -> Self {
        assert_format(opcode, Format::J);
        Instruction {
            rd: rd.index(),
            imm: offset.value(),
            ..Self::raw(opcode)
        }
    }

    /// Build a memory-ordering `fence` from its predecessor and successor
    /// sets (bit 3 = input/reads-device, 2 = output/writes-device,
    /// 1 = reads, 0 = writes).
    ///
    /// # Errors
    ///
    /// Returns [`RiscvError::ImmediateOutOfRange`] when either set does not
    /// fit in 4 bits.
    pub fn fence(pred: u8, succ: u8) -> Result<Self, RiscvError> {
        for set in [pred, succ] {
            if !fits_unsigned(u64::from(set), 4) {
                return Err(RiscvError::ImmediateOutOfRange {
                    mnemonic: "fence",
                    value: i64::from(set),
                    bits: 4,
                });
            }
        }
        Ok(Instruction {
            imm: i64::from(pred) << 4 | i64::from(succ),
            ..Self::raw(Opcode::Fence)
        })
    }

    /// Build an operand-less system instruction (`ecall`, `ebreak`).
    ///
    /// # Panics
    ///
    /// Panics when `opcode` is not a System-format opcode.
    #[must_use]
    pub fn system(opcode: Opcode) -> Self {
        assert_format(opcode, Format::System);
        Self::raw(opcode)
    }

    /// Build a register-source CSR access (`csrrw`, `csrrs`, `csrrc`).
    /// The address is pre-validated by [`CsrAddr::new`].
    ///
    /// # Errors
    ///
    /// Returns [`RiscvError::MalformedOperands`] when the opcode is not
    /// Csr-format.
    pub fn csr_reg(opcode: Opcode, rd: Gpr, csr: CsrAddr, rs1: Gpr) -> Result<Self, RiscvError> {
        check_format(opcode, Format::Csr)?;
        Ok(Instruction {
            rd: rd.index(),
            rs1: rs1.index(),
            imm: i64::from(csr.value()),
            ..Self::raw(opcode)
        })
    }

    /// Build an immediate-source CSR access (`csrrwi`, `csrrsi`,
    /// `csrrci`). The 5-bit immediate is stored in the `rs1` operand slot,
    /// mirroring the machine encoding.
    ///
    /// # Errors
    ///
    /// Returns [`RiscvError::ImmediateOutOfRange`] when `zimm >= 32` and
    /// [`RiscvError::MalformedOperands`] when the opcode is not
    /// CsrImm-format.
    pub fn csr_imm(opcode: Opcode, rd: Gpr, csr: CsrAddr, zimm: u8) -> Result<Self, RiscvError> {
        check_format(opcode, Format::CsrImm)?;
        if !fits_unsigned(u64::from(zimm), 5) {
            return Err(RiscvError::ImmediateOutOfRange {
                mnemonic: opcode.mnemonic(),
                value: i64::from(zimm),
                bits: 5,
            });
        }
        Ok(Instruction {
            rd: rd.index(),
            rs1: zimm,
            imm: i64::from(csr.value()),
            ..Self::raw(opcode)
        })
    }

    /// Build an atomic instruction (`lr`/`sc`/`amo*`) with its
    /// acquire/release ordering bits.
    ///
    /// # Errors
    ///
    /// Returns [`RiscvError::MalformedOperands`] when the opcode is not
    /// Amo-format, or when a load-reserved opcode is given a non-zero
    /// `rs2` (the field is a function code in the `lr` encoding).
    pub fn amo(
        opcode: Opcode,
        rd: Gpr,
        rs1: Gpr,
        rs2: Gpr,
        aq: bool,
        rl: bool,
    ) -> Result<Self, RiscvError> {
        check_format(opcode, Format::Amo)?;
        if opcode.encoding().rs2.is_some() && !rs2.is_zero() {
            return Err(RiscvError::MalformedOperands {
                mnemonic: opcode.mnemonic(),
                detail: "load-reserved takes no rs2 operand",
            });
        }
        Ok(Instruction {
            rd: rd.index(),
            rs1: rs1.index(),
            rs2: rs2.index(),
            aq,
            rl,
            ..Self::raw(opcode)
        })
    }

    /// Build an FP load (`flw`, `fld`): FP destination, integer base.
    ///
    /// # Errors
    ///
    /// Returns [`RiscvError::ImmediateOutOfRange`] when `imm` does not fit
    /// in 12 signed bits and [`RiscvError::MalformedOperands`] when the
    /// opcode is not FpLoad-format.
    pub fn fp_load(opcode: Opcode, rd: Fpr, rs1: Gpr, imm: i64) -> Result<Self, RiscvError> {
        check_format(opcode, Format::FpLoad)?;
        if !fits_signed(imm, 12) {
            return Err(RiscvError::ImmediateOutOfRange {
                mnemonic: opcode.mnemonic(),
                value: imm,
                bits: 12,
            });
        }
        Ok(Instruction {
            rd: rd.index(),
            rs1: rs1.index(),
            imm,
            ..Self::raw(opcode)
        })
    }

    /// Build an FP store (`fsw`, `fsd`): FP source, integer base.
    ///
    /// # Errors
    ///
    /// Returns [`RiscvError::ImmediateOutOfRange`] when `imm` does not fit
    /// in 12 signed bits and [`RiscvError::MalformedOperands`] when the
    /// opcode is not FpStore-format.
    pub fn fp_store(opcode: Opcode, rs1: Gpr, rs2: Fpr, imm: i64) -> Result<Self, RiscvError> {
        check_format(opcode, Format::FpStore)?;
        if !fits_signed(imm, 12) {
            return Err(RiscvError::ImmediateOutOfRange {
                mnemonic: opcode.mnemonic(),
                value: imm,
                bits: 12,
            });
        }
        Ok(Instruction {
            rs1: rs1.index(),
            rs2: rs2.index(),
            imm,
            ..Self::raw(opcode)
        })
    }

    /// Build a fused multiply-add family instruction (`fmadd`, `fmsub`,
    /// `fnmsub`, `fnmadd`).
    ///
    /// # Panics
    ///
    /// Panics when `opcode` is not an R4-format opcode.
    #[must_use]
    pub fn r4_type(
        opcode: Opcode,
        rd: Fpr,
        rs1: Fpr,
        rs2: Fpr,
        rs3: Fpr,
        rm: RoundingMode,
    ) -> Self {
        assert_format(opcode, Format::R4);
        Instruction {
            rd: rd.index(),
            rs1: rs1.index(),
            rs2: rs2.index(),
            rs3: rs3.index(),
            rm: Some(rm),
            ..Self::raw(opcode)
        }
    }

    /// Build a two-source OP-FP instruction with an FP destination
    /// (`fadd`, `fsub`, `fmul`, `fdiv`, `fsgnj*`, `fmin`, `fmax`).
    ///
    /// `rm` must be `Some` exactly when [`Opcode::uses_rm`] is true
    /// (arithmetic) and `None` for sign-injection/min/max, whose `funct3`
    /// is a function code.
    ///
    /// # Errors
    ///
    /// Returns [`RiscvError::MalformedOperands`] when the opcode is not a
    /// two-source FP opcode with FP destination, or when the rounding mode
    /// presence does not match the opcode.
    pub fn fp_r_type(
        opcode: Opcode,
        rd: Fpr,
        rs1: Fpr,
        rs2: Fpr,
        rm: Option<RoundingMode>,
    ) -> Result<Self, RiscvError> {
        check_format(opcode, Format::Fp)?;
        if !opcode.rd_is_fpr() {
            return Err(RiscvError::MalformedOperands {
                mnemonic: opcode.mnemonic(),
                detail: "comparison writes an integer rd; use fp_compare",
            });
        }
        Self::check_rm(opcode, rm)?;
        Ok(Instruction {
            rd: rd.index(),
            rs1: rs1.index(),
            rs2: rs2.index(),
            rm,
            ..Self::raw(opcode)
        })
    }

    /// Build an FP comparison (`feq`, `flt`, `fle`): integer destination,
    /// FP sources.
    ///
    /// # Errors
    ///
    /// Returns [`RiscvError::MalformedOperands`] when the opcode is not an
    /// FP comparison.
    pub fn fp_compare(opcode: Opcode, rd: Gpr, rs1: Fpr, rs2: Fpr) -> Result<Self, RiscvError> {
        check_format(opcode, Format::Fp)?;
        if opcode.rd_is_fpr() {
            return Err(RiscvError::MalformedOperands {
                mnemonic: opcode.mnemonic(),
                detail: "opcode writes an fp rd; use fp_r_type",
            });
        }
        Ok(Instruction {
            rd: rd.index(),
            rs1: rs1.index(),
            rs2: rs2.index(),
            ..Self::raw(opcode)
        })
    }

    /// Build a single-source OP-FP instruction (`fsqrt`, `fcvt.*`,
    /// `fmv.*`, `fclass`). Register classes vary per opcode, so operands
    /// are passed as [`Reg`] and validated against the opcode's metadata.
    ///
    /// # Errors
    ///
    /// Returns [`RiscvError::MalformedOperands`] when the opcode is not
    /// FpUnary-format, when a register class does not match the opcode, or
    /// when the rounding-mode presence does not match [`Opcode::uses_rm`].
    pub fn fp_unary(
        opcode: Opcode,
        rd: Reg,
        rs1: Reg,
        rm: Option<RoundingMode>,
    ) -> Result<Self, RiscvError> {
        check_format(opcode, Format::FpUnary)?;
        if rd.is_fpr() != opcode.rd_is_fpr() || rs1.is_fpr() != opcode.rs1_is_fpr() {
            return Err(RiscvError::MalformedOperands {
                mnemonic: opcode.mnemonic(),
                detail: "register class does not match the opcode",
            });
        }
        Self::check_rm(opcode, rm)?;
        Ok(Instruction {
            rd: rd.index(),
            rs1: rs1.index(),
            rm,
            ..Self::raw(opcode)
        })
    }

    fn check_rm(opcode: Opcode, rm: Option<RoundingMode>) -> Result<(), RiscvError> {
        match (opcode.uses_rm(), rm) {
            (true, Some(_)) | (false, None) => Ok(()),
            (true, None) => Err(RiscvError::MalformedOperands {
                mnemonic: opcode.mnemonic(),
                detail: "opcode requires a rounding mode",
            }),
            (false, Some(_)) => Err(RiscvError::MalformedOperands {
                mnemonic: opcode.mnemonic(),
                detail: "opcode has no rounding-mode field",
            }),
        }
    }

    /// The opcode.
    #[must_use]
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// Raw destination register index (class per [`Opcode::rd_is_fpr`]).
    #[must_use]
    pub fn rd(&self) -> u8 {
        self.rd
    }

    /// Raw first-source register index. For `csrrwi`-style opcodes this
    /// slot holds the 5-bit zero-extended immediate, as in the machine
    /// encoding.
    #[must_use]
    pub fn rs1(&self) -> u8 {
        self.rs1
    }

    /// Raw second-source register index.
    #[must_use]
    pub fn rs2(&self) -> u8 {
        self.rs2
    }

    /// Raw third-source register index (R4 formats only).
    #[must_use]
    pub fn rs3(&self) -> u8 {
        self.rs3
    }

    /// The immediate operand: sign-extended value for I/S/B/U/J formats,
    /// shift amount for shifts, `pred<<4|succ` for `fence`, CSR address for
    /// Zicsr opcodes, zero otherwise.
    #[must_use]
    pub fn imm(&self) -> i64 {
        self.imm
    }

    /// The rounding mode, for opcodes that carry one.
    #[must_use]
    pub fn rm(&self) -> Option<RoundingMode> {
        self.rm
    }

    /// The acquire ordering bit (atomics only).
    #[must_use]
    pub fn aq(&self) -> bool {
        self.aq
    }

    /// The release ordering bit (atomics only).
    #[must_use]
    pub fn rl(&self) -> bool {
        self.rl
    }

    /// The CSR address targeted by a Zicsr instruction, if any.
    #[must_use]
    pub fn csr_addr(&self) -> Option<CsrAddr> {
        matches!(self.opcode.format(), Format::Csr | Format::CsrImm)
            .then(|| CsrAddr(self.imm as u16))
    }

    /// Project the instruction into the format-erased [`Operands`] view:
    /// class-aware registers, immediate and CSR address, each present
    /// exactly when the instruction's format carries the slot.
    ///
    /// This is the single place where per-format field meanings are
    /// resolved; the executor, the disassembler and dataflow analyses all
    /// consume this view instead of re-interpreting the raw indices.
    #[must_use]
    pub fn operands(&self) -> Operands {
        Operands::project(
            self.opcode,
            self.rd,
            self.rs1,
            self.rs2,
            self.rs3,
            self.imm,
            self.csr_addr(),
        )
    }

    fn funct3_bits(&self) -> Result<u32, RiscvError> {
        match (self.opcode.encoding().funct3, self.rm) {
            (Some(f3), _) => Ok(u32::from(f3)),
            (None, Some(rm)) => Ok(u32::from(rm.to_bits())),
            (None, None) => Err(RiscvError::MalformedOperands {
                mnemonic: self.opcode.mnemonic(),
                detail: "missing rounding mode",
            }),
        }
    }

    /// Encode the instruction into its 32-bit machine word.
    ///
    /// # Errors
    ///
    /// Construction already validates every operand, so this only fails on
    /// an internally inconsistent instruction (e.g. a missing rounding
    /// mode), which the typed constructors rule out.
    pub fn encode(&self) -> Result<u32, RiscvError> {
        self.encode_inner(false)
    }

    /// Best-effort encoding for diagnostics: identical to
    /// [`Instruction::encode`] for every well-formed instruction, but an
    /// internally inconsistent one (missing rounding mode) encodes the
    /// absent `rm` field as the dynamic mode instead of failing, so error
    /// paths always have a concrete machine word to report.
    #[must_use]
    pub fn encode_lossy(&self) -> u32 {
        match self.encode_inner(true) {
            Ok(word) => word,
            // Unreachable: `lossy` substitutes every fallible field. Fall
            // back to the bare major opcode rather than panicking.
            Err(_) => u32::from(self.opcode.encoding().opcode),
        }
    }

    /// The funct3 field, substituting the dynamic rounding mode for a
    /// missing one when `lossy` encoding was requested.
    fn funct3_or_dyn(&self, lossy: bool) -> Result<u32, RiscvError> {
        match self.funct3_bits() {
            Err(_) if lossy => Ok(u32::from(RoundingMode::Dyn.to_bits())),
            resolved => resolved,
        }
    }

    fn encode_inner(&self, lossy: bool) -> Result<u32, RiscvError> {
        let e = self.opcode.encoding();
        let base = u32::from(e.opcode);
        let rd = u32::from(self.rd) << 7;
        let rs1 = u32::from(self.rs1) << 15;
        let rs2 = u32::from(self.rs2) << 20;
        let fixed_f7 = || u32::from(e.funct7.unwrap_or(0)) << 25;
        let imm = self.imm as u64 as u32;
        let word = match self.opcode.format() {
            Format::R => base | rd | self.funct3_or_dyn(lossy)? << 12 | rs1 | rs2 | fixed_f7(),
            Format::I | Format::FpLoad => {
                base | rd | self.funct3_or_dyn(lossy)? << 12 | rs1 | (imm & 0xFFF) << 20
            }
            Format::S | Format::FpStore => {
                base | (imm & 0x1F) << 7
                    | self.funct3_or_dyn(lossy)? << 12
                    | rs1
                    | rs2
                    | ((imm >> 5) & 0x7F) << 25
            }
            Format::B => {
                base | ((imm >> 11) & 1) << 7
                    | ((imm >> 1) & 0xF) << 8
                    | self.funct3_or_dyn(lossy)? << 12
                    | rs1
                    | rs2
                    | ((imm >> 5) & 0x3F) << 25
                    | ((imm >> 12) & 1) << 31
            }
            Format::U => base | rd | (imm & 0xF_FFFF) << 12,
            Format::J => {
                base | rd
                    | ((imm >> 12) & 0xFF) << 12
                    | ((imm >> 11) & 1) << 20
                    | ((imm >> 1) & 0x3FF) << 21
                    | ((imm >> 20) & 1) << 31
            }
            Format::Shamt | Format::ShamtW => {
                base | rd | self.funct3_or_dyn(lossy)? << 12 | rs1 | (imm & 0x3F) << 20 | fixed_f7()
            }
            Format::Fence => base | self.funct3_or_dyn(lossy)? << 12 | (imm & 0xFF) << 20,
            Format::System => base | u32::from(e.rs2.unwrap_or(0)) << 20,
            Format::Csr | Format::CsrImm => {
                base | rd | self.funct3_or_dyn(lossy)? << 12 | rs1 | (imm & 0xFFF) << 20
            }
            Format::Amo => {
                base | rd
                    | self.funct3_or_dyn(lossy)? << 12
                    | rs1
                    | rs2
                    | u32::from(self.rl) << 25
                    | u32::from(self.aq) << 26
                    | u32::from(e.funct7.unwrap_or(0)) << 27
            }
            Format::R4 => {
                base | rd
                    | self.funct3_or_dyn(lossy)? << 12
                    | rs1
                    | rs2
                    | u32::from(e.funct7.unwrap_or(0)) << 25
                    | u32::from(self.rs3) << 27
            }
            Format::Fp => base | rd | self.funct3_or_dyn(lossy)? << 12 | rs1 | rs2 | fixed_f7(),
            Format::FpUnary => {
                base | rd
                    | self.funct3_or_dyn(lossy)? << 12
                    | rs1
                    | u32::from(e.rs2.unwrap_or(0)) << 20
                    | fixed_f7()
            }
        };
        Ok(word)
    }

    const fn matches(opcode: Opcode, word: u32) -> bool {
        let e = opcode.encoding();
        if e.opcode as u32 != word & 0x7F {
            return false;
        }
        let f3 = ((word >> 12) & 0x7) as u8;
        let f7 = ((word >> 25) & 0x7F) as u8;
        let rs2f = ((word >> 20) & 0x1F) as u8;
        let f3_ok = free_or(e.funct3, f3);
        match opcode.format() {
            Format::R | Format::Fp | Format::ShamtW => f3_ok && is(e.funct7, f7),
            Format::FpUnary => f3_ok && is(e.funct7, f7) && is(e.rs2, rs2f),
            // funct7 bit 0 is shamt[5] for 64-bit shifts.
            Format::Shamt => f3_ok && is(e.funct7, f7 & !1),
            Format::Amo => f3_ok && is(e.funct7, f7 >> 2) && free_or(e.rs2, rs2f),
            Format::R4 => is(e.funct7, f7 & 0b11),
            Format::System => word == or_zero(e.rs2) << 20 | e.opcode as u32,
            Format::I
            | Format::S
            | Format::B
            | Format::FpLoad
            | Format::FpStore
            | Format::Csr
            | Format::CsrImm
            | Format::Fence => f3_ok,
            Format::U | Format::J => true,
        }
    }

    fn decode_rm(opcode: Opcode, word: u32) -> Result<Option<RoundingMode>, RiscvError> {
        if !opcode.uses_rm() {
            return Ok(None);
        }
        let bits = ((word >> 12) & 0x7) as u8;
        RoundingMode::from_bits(bits)
            .map(Some)
            .ok_or(RiscvError::InvalidRoundingMode { bits })
    }

    /// Decode a 32-bit machine word.
    ///
    /// The word decodes as the *first* opcode in [`Opcode::ALL`] order
    /// whose fixed fields it matches, and its operands are then
    /// validated exactly as the typed constructors validate them.
    ///
    /// Cost: one lookup in a table keyed on the major opcode (bits 6:0)
    /// and the high field (bits 31:25), then a match test on each
    /// candidate opcode for that key (at most 8 in the current opcode
    /// table), then operand extraction. Words whose key has no candidate
    /// are rejected after the lookup alone. The table is a `static` of
    /// under 64 KiB, computed at compile time from [`Opcode::encoding`]
    /// and [`Opcode::format`].
    ///
    /// # Errors
    ///
    /// Returns [`RiscvError::UnknownEncoding`] for words outside the
    /// modelled RV64 IMAFD+Zicsr subset, [`RiscvError::InvalidRoundingMode`]
    /// for FP instructions using the reserved `rm` encodings `0b101`/`0b110`
    /// (the paper's bug-scenario suite, scenario B2 — see
    /// [`RoundingMode::from_bits`]) and
    /// [`RiscvError::MisalignedImmediate`] for branch or jump targets that
    /// are not 4-byte aligned (this crate only models whole-instruction
    /// offsets).
    pub fn decode(word: u32) -> Result<Self, RiscvError> {
        let key = decode_key(word);
        let bucket =
            &DECODE_TABLE[usize::from(DECODE_TABLE[key])..usize::from(DECODE_TABLE[key + 1])];
        let opcode = bucket
            .iter()
            .map(|&index| Opcode::ALL[usize::from(index)])
            .find(|&op| Self::matches(op, word))
            .ok_or(RiscvError::UnknownEncoding { word })?;
        Self::from_word(opcode, word)
    }

    fn from_word(opcode: Opcode, word: u32) -> Result<Self, RiscvError> {
        let rdi = ((word >> 7) & 0x1F) as u8;
        let rs1i = ((word >> 15) & 0x1F) as u8;
        let rs2i = ((word >> 20) & 0x1F) as u8;
        let xd = Gpr::wrapping(rdi);
        let x1 = Gpr::wrapping(rs1i);
        let x2 = Gpr::wrapping(rs2i);
        let fd = Fpr::wrapping(rdi);
        let f1 = Fpr::wrapping(rs1i);
        let f2 = Fpr::wrapping(rs2i);
        let imm_i = sign_extend(u64::from(word >> 20), 12);
        let imm_s = sign_extend(u64::from((word >> 25) << 5 | (word >> 7) & 0x1F), 12);
        match opcode.format() {
            Format::R => Ok(Self::r_type(opcode, xd, x1, x2)),
            Format::I => Self::i_type(opcode, xd, x1, imm_i),
            Format::S => Self::s_type(opcode, x1, x2, imm_s),
            Format::B => {
                let raw = (word >> 31) << 12
                    | ((word >> 7) & 1) << 11
                    | ((word >> 25) & 0x3F) << 5
                    | ((word >> 8) & 0xF) << 1;
                let offset = BranchOffset::new(sign_extend(u64::from(raw), 13))?;
                Ok(Self::b_type(opcode, x1, x2, offset))
            }
            Format::U => Self::u_type(opcode, xd, sign_extend(u64::from(word >> 12), 20)),
            Format::J => {
                let raw = (word >> 31) << 20
                    | ((word >> 12) & 0xFF) << 12
                    | ((word >> 20) & 1) << 11
                    | ((word >> 21) & 0x3FF) << 1;
                let offset = JumpOffset::new(sign_extend(u64::from(raw), 21))?;
                Ok(Self::j_type(opcode, xd, offset))
            }
            Format::Shamt => Self::shift(opcode, xd, x1, ((word >> 20) & 0x3F) as u8),
            Format::ShamtW => Self::shift(opcode, xd, x1, rs2i),
            Format::Fence => {
                // fm, rd and rs1 must be zero: the crate cannot represent
                // `fence.tso` or the reserved hint encodings.
                if word >> 28 != 0 || rdi != 0 || rs1i != 0 {
                    return Err(RiscvError::UnknownEncoding { word });
                }
                Self::fence(((word >> 24) & 0xF) as u8, ((word >> 20) & 0xF) as u8)
            }
            Format::System => Ok(Self::system(opcode)),
            Format::Csr => Self::csr_reg(opcode, xd, CsrAddr((word >> 20) as u16 & 0xFFF), x1),
            Format::CsrImm => Self::csr_imm(opcode, xd, CsrAddr((word >> 20) as u16 & 0xFFF), rs1i),
            Format::Amo => {
                let aq = word >> 26 & 1 != 0;
                let rl = word >> 25 & 1 != 0;
                Self::amo(opcode, xd, x1, x2, aq, rl)
            }
            Format::R4 => {
                let rs3 = Fpr::wrapping((word >> 27) as u8);
                let rm = Self::decode_rm(opcode, word)?.expect("R4 opcodes always carry an rm");
                Ok(Self::r4_type(opcode, fd, f1, f2, rs3, rm))
            }
            Format::FpLoad => Self::fp_load(opcode, fd, x1, imm_i),
            Format::FpStore => Self::fp_store(opcode, x1, f2, imm_s),
            Format::Fp => {
                let rm = Self::decode_rm(opcode, word)?;
                if opcode.rd_is_fpr() {
                    Self::fp_r_type(opcode, fd, f1, f2, rm)
                } else {
                    Self::fp_compare(opcode, xd, f1, f2)
                }
            }
            Format::FpUnary => {
                let rm = Self::decode_rm(opcode, word)?;
                let rd = if opcode.rd_is_fpr() {
                    Reg::F(fd)
                } else {
                    Reg::X(xd)
                };
                let rs1 = if opcode.rs1_is_fpr() {
                    Reg::F(f1)
                } else {
                    Reg::X(x1)
                };
                Self::fp_unary(opcode, rd, rs1, rm)
            }
        }
    }
}

/// `field` is fixed to `value`.
const fn is(field: Option<u8>, value: u8) -> bool {
    matches!(field, Some(v) if v == value)
}

/// `field` is free, or fixed to `value`.
const fn free_or(field: Option<u8>, value: u8) -> bool {
    match field {
        Some(v) => v == value,
        None => true,
    }
}

/// The value of a fixed field, or zero for a free one.
const fn or_zero(field: Option<u8>) -> u32 {
    match field {
        Some(v) => v as u32,
        None => 0,
    }
}

/// Number of decode-table keys: every (major opcode, bits 31:25) pair.
const DECODE_KEYS: usize = 1 << 14;

/// The decode-table key of `word`: its major opcode (bits 6:0) and its
/// high field (bits 31:25).
const fn decode_key(word: u32) -> usize {
    ((word & 0x7F) << 7 | word >> 25) as usize
}

/// The key under which `op` is a decode candidate with bits 31:25 set to
/// `high`, if it is one there.
///
/// `matches` reads the major opcode, funct3, bits 31:25 and the rs2
/// field (plus, for `System`, the all-zero rd/rs1), so an opcode can
/// match some word with a given key exactly when it matches the word
/// carrying that key, its own fixed funct3/rs2 and zero elsewhere.
const fn candidate_key(op: Opcode, high: u32) -> Option<usize> {
    let e = op.encoding();
    let word = e.opcode as u32 | or_zero(e.funct3) << 12 | or_zero(e.rs2) << 20 | high << 25;
    if Instruction::matches(op, word) {
        Some(decode_key(word))
    } else {
        None
    }
}

/// Candidates per decode key (the extra last slot stays zero).
const fn bucket_sizes() -> [u16; DECODE_KEYS + 1] {
    let mut sizes = [0u16; DECODE_KEYS + 1];
    let mut index = 0;
    while index < Opcode::ALL.len() {
        let mut high = 0;
        while high < 1 << 7 {
            if let Some(key) = candidate_key(Opcode::ALL[index], high) {
                sizes[key] += 1;
            }
            high += 1;
        }
        index += 1;
    }
    sizes
}

/// Length of [`DECODE_TABLE`]: the bucket bounds, then every candidate.
const DECODE_TABLE_LEN: usize = {
    let sizes = bucket_sizes();
    let mut len = DECODE_KEYS + 1;
    let mut key = 0;
    while key < DECODE_KEYS {
        len += sizes[key] as usize;
        key += 1;
    }
    assert!(
        len <= u16::MAX as usize,
        "decode-table offsets must fit u16"
    );
    assert!(
        2 * len <= 64 * 1024,
        "the decode table must stay within 64 KiB"
    );
    len
};

/// The candidate opcodes of every decode key, as one flat array.
/// Entries `0..=DECODE_KEYS` are bucket bounds: key `k`'s candidates are
/// `DECODE_TABLE[DECODE_TABLE[k]..DECODE_TABLE[k + 1]]`, indices into
/// [`Opcode::ALL`] in that order, so the first candidate that matches is
/// the first opcode of the whole table that matches.
static DECODE_TABLE: [u16; DECODE_TABLE_LEN] = {
    // Bucket sizes become bucket ends.
    let mut table = [0u16; DECODE_TABLE_LEN];
    let sizes = bucket_sizes();
    let mut end = DECODE_KEYS + 1;
    let mut key = 0;
    while key <= DECODE_KEYS {
        end += sizes[key] as usize;
        table[key] = end as u16;
        key += 1;
    }
    // Filling each bucket back to front, from the last candidate, leaves
    // it in `Opcode::ALL` order and its bound slot at its start.
    let mut index = Opcode::ALL.len();
    while index > 0 {
        index -= 1;
        let mut high = 1 << 7;
        while high > 0 {
            high -= 1;
            if let Some(key) = candidate_key(Opcode::ALL[index], high) {
                table[key] -= 1;
                table[table[key] as usize] = index as u16;
            }
        }
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr;

    /// The reference decode: a linear scan of the whole opcode table.
    fn decode_by_scan(word: u32) -> Result<Instruction, RiscvError> {
        let opcode = Opcode::ALL
            .iter()
            .copied()
            .find(|&op| Instruction::matches(op, word))
            .ok_or(RiscvError::UnknownEncoding { word })?;
        Instruction::from_word(opcode, word)
    }

    #[test]
    fn table_decode_equals_the_linear_scan_on_every_fixed_field_combination() {
        for major in 0..1u32 << 7 {
            for funct3 in 0..1u32 << 3 {
                for funct7 in 0..1u32 << 7 {
                    for rs2 in [0u32, 1, 2, 3, 31] {
                        // Zero rd/rs1 reach the full-word `System` match.
                        for (rd, rs1) in [(0u32, 0u32), (5, 17)] {
                            let word = major
                                | rd << 7
                                | funct3 << 12
                                | rs1 << 15
                                | rs2 << 20
                                | funct7 << 25;
                            assert_eq!(
                                Instruction::decode(word),
                                decode_by_scan(word),
                                "word {word:#010x}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn table_decode_equals_the_linear_scan_on_random_words() {
        let mut state = 0x7462_6C65_6465_636Fu64;
        for _ in 0..1 << 20 {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let word = (z ^ (z >> 31)) as u32;
            assert_eq!(
                Instruction::decode(word),
                decode_by_scan(word),
                "word {word:#010x}"
            );
        }
    }

    #[test]
    fn decode_buckets_hold_at_most_8_candidates() {
        let widest = (0..DECODE_KEYS)
            .map(|key| DECODE_TABLE[key + 1] - DECODE_TABLE[key])
            .max()
            .unwrap();
        assert!(widest <= 8, "a bucket holds {widest} candidates");
    }

    #[test]
    fn r_type_round_trip() {
        let insn = Instruction::r_type(
            Opcode::Add,
            Gpr::new(1).unwrap(),
            Gpr::new(2).unwrap(),
            Gpr::new(3).unwrap(),
        );
        let word = insn.encode().unwrap();
        assert_eq!(word, 0x0031_00B3);
        assert_eq!(Instruction::decode(word).unwrap(), insn);
    }

    #[test]
    fn nop_is_addi_zero() {
        assert_eq!(Instruction::nop().encode().unwrap(), 0x0000_0013);
    }

    #[test]
    fn i_type_rejects_oversized_immediate() {
        let err = Instruction::i_type(Opcode::Addi, Gpr::ZERO, Gpr::ZERO, 2048).unwrap_err();
        assert!(matches!(
            err,
            RiscvError::ImmediateOutOfRange { bits: 12, .. }
        ));
    }

    #[test]
    fn wrong_format_is_rejected() {
        let err = Instruction::i_type(Opcode::Add, Gpr::ZERO, Gpr::ZERO, 0).unwrap_err();
        assert!(matches!(err, RiscvError::MalformedOperands { .. }));
    }

    #[test]
    #[should_panic(expected = "is not a r-format opcode")]
    fn r_type_panics_on_wrong_format() {
        let _ = Instruction::r_type(Opcode::Addi, Gpr::ZERO, Gpr::ZERO, Gpr::ZERO);
    }

    #[test]
    fn u_type_accepts_unsigned_spelling() {
        let a = Instruction::u_type(Opcode::Lui, Gpr::RA, 0xF_FFFF).unwrap();
        let b = Instruction::u_type(Opcode::Lui, Gpr::RA, -1).unwrap();
        assert_eq!(a, b);
        assert!(Instruction::u_type(Opcode::Lui, Gpr::RA, 0x10_0000).is_err());
    }

    #[test]
    fn lr_rejects_nonzero_rs2() {
        let err = Instruction::amo(
            Opcode::LrW,
            Gpr::RA,
            Gpr::SP,
            Gpr::new(3).unwrap(),
            false,
            false,
        )
        .unwrap_err();
        assert!(matches!(err, RiscvError::MalformedOperands { .. }));
        assert!(Instruction::amo(Opcode::LrW, Gpr::RA, Gpr::SP, Gpr::ZERO, true, false).is_ok());
    }

    #[test]
    fn rm_presence_is_validated() {
        let f = Fpr::new(1).unwrap();
        assert!(Instruction::fp_r_type(Opcode::FaddS, f, f, f, None).is_err());
        assert!(Instruction::fp_r_type(Opcode::FsgnjS, f, f, f, Some(RoundingMode::Rne)).is_err());
        assert!(Instruction::fp_r_type(Opcode::FaddS, f, f, f, Some(RoundingMode::Rne)).is_ok());
    }

    #[test]
    fn fp_unary_register_classes_validated() {
        let x = Reg::X(Gpr::RA);
        let f = Reg::F(Fpr::new(2).unwrap());
        // fcvt.w.s reads FP, writes integer.
        assert!(Instruction::fp_unary(Opcode::FcvtWS, x, f, Some(RoundingMode::Rtz)).is_ok());
        assert!(Instruction::fp_unary(Opcode::FcvtWS, f, x, Some(RoundingMode::Rtz)).is_err());
    }

    #[test]
    fn reserved_rounding_mode_word_is_rejected() {
        // fadd.s f1, f2, f3 with rm=0b101 (reserved) — the paper's bug
        // scenario B2 decodes this to an error, never to Dyn.
        let word = 0x0031_00D3 | 0b101 << 12;
        assert_eq!(
            Instruction::decode(word),
            Err(RiscvError::InvalidRoundingMode { bits: 0b101 })
        );
    }

    #[test]
    fn unknown_word_is_rejected() {
        assert!(matches!(
            Instruction::decode(0xFFFF_FFFF),
            Err(RiscvError::UnknownEncoding { .. })
        ));
        // Slli with a funct6 that is neither logical nor arithmetic.
        assert!(matches!(
            Instruction::decode(0x4000_1013 | 1 << 30 | 1 << 27),
            Err(RiscvError::UnknownEncoding { .. })
        ));
    }

    #[test]
    fn misaligned_branch_word_is_rejected() {
        // beq x0, x0, +2: architecturally legal, but outside the 4-byte
        // aligned subset this crate models.
        let insn = Instruction::b_type(Opcode::Beq, Gpr::ZERO, Gpr::ZERO, BranchOffset::default());
        let word = insn.encode().unwrap() | 1 << 8;
        assert!(matches!(
            Instruction::decode(word),
            Err(RiscvError::MisalignedImmediate { .. })
        ));
    }

    #[test]
    fn csr_accessor_exposes_address() {
        let insn = Instruction::csr_reg(Opcode::Csrrw, Gpr::RA, csr::FCSR, Gpr::SP).unwrap();
        assert_eq!(insn.csr_addr(), Some(csr::FCSR));
        assert_eq!(Instruction::nop().csr_addr(), None);
    }

    #[test]
    fn fence_round_trips() {
        let insn = Instruction::fence(0b1111, 0b0011).unwrap();
        let word = insn.encode().unwrap();
        assert_eq!(Instruction::decode(word).unwrap(), insn);
        assert!(Instruction::fence(0x10, 0).is_err());
    }

    #[test]
    fn fence_with_reserved_fields_is_unknown() {
        let word = Instruction::fence(0xF, 0xF).unwrap().encode().unwrap();
        assert!(Instruction::decode(word | 1 << 7).is_err());
        assert!(Instruction::decode(word | 1 << 28).is_err());
    }
}
