//! Line-oriented parser (and canonical writer) for accelsim-style traces.
//!
//! The grammar is documented in `REPRODUCING.md`. In short:
//!
//! ```text
//! # comments and blank lines are ignored anywhere
//! -kernel name = vecadd
//! -grid dim = (2,1,1)
//! -block dim = (64,1,1)
//! -nregs = 10
//! -shmem = 0
//!
//! warp = 0
//! 0000 ffffffff 1 R2 MOV 0 0
//! 0008 ffffffff 1 R4 LDG 1 R2 4 0x10000000
//! 0010 ffffffff 0 EXIT 0 0
//! ```
//!
//! Each instruction record is `pc mask ndest [Rd...] OPCODE nsrc [Rs...]
//! mem-width [addr...]`. Unknown `-` header directives are ignored (real
//! accelsim headers carry many more), and opcode modifiers after a dot
//! (`LDG.E.SYS`) are stripped before mnemonic lookup. Every malformed line
//! maps to a typed [`TraceError`]; the parser never panics.

use ltrf_isa::Opcode;

use crate::TraceError;

/// The executed operation an instruction record maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// A computational or memory instruction, mapped onto the kernel IR.
    Op(Opcode),
    /// A control transfer (`BRA`); becomes a block terminator when lowered.
    Branch,
    /// Thread exit (`EXIT` / `RET`); ends the trace's control flow.
    Exit,
}

impl TraceOp {
    /// Looks up a trace mnemonic (modifiers after `.` already stripped).
    #[must_use]
    pub(crate) fn from_mnemonic(mnemonic: &str) -> Option<Self> {
        let op = match mnemonic {
            "BRA" => return Some(TraceOp::Branch),
            "EXIT" | "RET" => return Some(TraceOp::Exit),
            "IADD" | "ISUB" | "IALU" | "LOP" | "LOP3" | "SHF" | "SHL" | "SHR" | "IMNMX" => {
                Opcode::IAlu
            }
            "IMAD" | "IMUL" | "XMAD" => Opcode::IMul,
            "FADD" | "FMUL" | "FALU" | "FMNMX" => Opcode::FAlu,
            "FFMA" => Opcode::FFma,
            "MUFU" | "SFU" | "RCP" | "SQRT" | "SIN" | "COS" | "LG2" | "EX2" => Opcode::Sfu,
            "MOV" | "MOV32I" | "SEL" => Opcode::Mov,
            "ISETP" | "FSETP" | "SETP" | "PSETP" => Opcode::SetP,
            "LDG" | "LD" => Opcode::LoadGlobal,
            "LDS" => Opcode::LoadShared,
            "LDC" => Opcode::LoadConst,
            "LDL" => Opcode::LoadLocal,
            "STG" | "ST" => Opcode::StoreGlobal,
            "STS" => Opcode::StoreShared,
            "STL" => Opcode::StoreLocal,
            "BAR" | "MEMBAR" => Opcode::Barrier,
            "NOP" => Opcode::Nop,
            _ => return None,
        };
        Some(TraceOp::Op(op))
    }

    /// The canonical mnemonic the writer emits; parsing it yields `self`.
    #[must_use]
    pub(crate) fn mnemonic(&self) -> &'static str {
        match self {
            TraceOp::Branch => "BRA",
            TraceOp::Exit => "EXIT",
            TraceOp::Op(op) => match op {
                Opcode::IAlu => "IADD",
                Opcode::IMul => "IMAD",
                Opcode::FAlu => "FADD",
                Opcode::FFma => "FFMA",
                Opcode::Sfu => "MUFU",
                Opcode::Mov => "MOV",
                Opcode::SetP => "ISETP",
                Opcode::LoadGlobal => "LDG",
                Opcode::LoadShared => "LDS",
                Opcode::LoadConst => "LDC",
                Opcode::LoadLocal => "LDL",
                Opcode::StoreGlobal => "STG",
                Opcode::StoreShared => "STS",
                Opcode::StoreLocal => "STL",
                Opcode::Barrier => "BAR",
                Opcode::Nop => "NOP",
                // `Opcode` is non-exhaustive; any future operation without a
                // trace mnemonic renders as (and parses back to) a no-op.
                _ => "NOP",
            },
        }
    }
}

/// One parsed per-warp instruction record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceInstruction {
    /// Program counter of the instruction.
    pub pc: u64,
    /// Active-thread mask of the executing warp.
    pub mask: u32,
    /// Destination registers (usually zero or one).
    pub dsts: Vec<u8>,
    /// The operation.
    pub op: TraceOp,
    /// Source registers.
    pub srcs: Vec<u8>,
    /// Per-thread access width in bytes; zero for non-memory instructions.
    pub mem_width: u32,
    /// Accessed addresses (one per active thread at most; may be fewer).
    pub addresses: Vec<u64>,
}

/// The kernel-launch header of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelHeader {
    /// Kernel name from `-kernel name`.
    pub kernel_name: String,
    /// Grid dimensions from `-grid dim`.
    pub grid_dim: (u32, u32, u32),
    /// Thread-block dimensions from `-block dim`.
    pub block_dim: (u32, u32, u32),
    /// Per-thread register count from `-nregs`.
    pub nregs: u32,
    /// Static shared memory per block in bytes from `-shmem` (default 0).
    pub shmem: u32,
}

impl KernelHeader {
    /// Thread blocks in the grid (product of the grid dimensions, min 1).
    #[must_use]
    pub(crate) fn blocks_per_grid(&self) -> u32 {
        let (x, y, z) = self.grid_dim;
        x.saturating_mul(y).saturating_mul(z).max(1)
    }

    /// Warps per thread block (threads rounded up to warps, min 1).
    #[must_use]
    pub(crate) fn warps_per_block(&self) -> u32 {
        let (x, y, z) = self.block_dim;
        let threads = u64::from(x) * u64::from(y) * u64::from(z);
        u32::try_from(threads.div_ceil(32))
            .unwrap_or(u32::MAX)
            .max(1)
    }
}

/// The instruction stream of one warp.
#[derive(Debug, Clone, PartialEq)]
pub struct WarpStream {
    /// Warp id from the `warp = N` line.
    pub warp_id: u32,
    /// The warp's dynamic instruction records, in execution order.
    pub instructions: Vec<TraceInstruction>,
}

/// A fully parsed trace file: header plus per-warp streams.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFile {
    /// The kernel-launch header.
    pub header: KernelHeader,
    /// Per-warp instruction streams, in file order.
    pub warps: Vec<WarpStream>,
}

fn syntax(line: usize, message: impl Into<String>) -> TraceError {
    TraceError::Syntax {
        line,
        message: message.into(),
    }
}

fn parse_hex(token: &str, line: usize, what: &str) -> Result<u64, TraceError> {
    let digits = token.strip_prefix("0x").unwrap_or(token);
    u64::from_str_radix(digits, 16)
        .map_err(|_| syntax(line, format!("{what} `{token}` is not a hex number")))
}

fn parse_dec(token: &str, line: usize, what: &str) -> Result<u64, TraceError> {
    token
        .parse::<u64>()
        .map_err(|_| syntax(line, format!("{what} `{token}` is not a decimal number")))
}

fn parse_reg(token: &str, line: usize) -> Result<u8, TraceError> {
    let digits = token
        .strip_prefix('R')
        .or_else(|| token.strip_prefix('r'))
        .ok_or_else(|| syntax(line, format!("register `{token}` does not start with `R`")))?;
    let value = digits
        .parse::<u64>()
        .map_err(|_| syntax(line, format!("register `{token}` has a non-numeric index")))?;
    u8::try_from(value).map_err(|_| TraceError::RegisterOutOfRange {
        line,
        register: value,
    })
}

fn parse_dims(value: &str, line: usize, what: &str) -> Result<(u32, u32, u32), TraceError> {
    let inner = value
        .trim()
        .strip_prefix('(')
        .and_then(|v| v.strip_suffix(')'))
        .ok_or_else(|| syntax(line, format!("{what} `{value}` is not of the form (x,y,z)")))?;
    let mut parts = inner.split(',').map(str::trim);
    let mut next_dim = |name| {
        parts
            .next()
            .ok_or_else(|| {
                syntax(
                    line,
                    format!("{what} `{value}` is missing the {name} field"),
                )
            })
            .and_then(|t| parse_dec(t, line, name))
            .and_then(|v| {
                u32::try_from(v).map_err(|_| syntax(line, format!("{name} `{v}` overflows u32")))
            })
    };
    let dims = (next_dim("x")?, next_dim("y")?, next_dim("z")?);
    if parts.next().is_some() {
        return Err(syntax(
            line,
            format!("{what} `{value}` has more than three fields"),
        ));
    }
    Ok(dims)
}

fn next_token<'a>(
    tokens: &[&'a str],
    pos: &mut usize,
    line: usize,
    what: &str,
) -> Result<&'a str, TraceError> {
    let token = tokens
        .get(*pos)
        .copied()
        .ok_or_else(|| syntax(line, format!("record ends before the {what} field")))?;
    *pos += 1;
    Ok(token)
}

fn parse_instruction(tokens: &[&str], line: usize) -> Result<TraceInstruction, TraceError> {
    let mut pos = 0usize;

    let pc = parse_hex(next_token(tokens, &mut pos, line, "pc")?, line, "pc")?;
    let mask64 = parse_hex(
        next_token(tokens, &mut pos, line, "mask")?,
        line,
        "active mask",
    )?;
    let mask = u32::try_from(mask64).map_err(|_| {
        syntax(
            line,
            format!("active mask {mask64:#x} is wider than 32 bits"),
        )
    })?;

    let ndest = parse_dec(
        next_token(tokens, &mut pos, line, "ndest")?,
        line,
        "destination count",
    )?;
    if ndest > 4 {
        return Err(syntax(
            line,
            format!("destination count {ndest} is implausibly large"),
        ));
    }
    let mut dsts = Vec::with_capacity(ndest as usize);
    for _ in 0..ndest {
        dsts.push(parse_reg(
            next_token(tokens, &mut pos, line, "destination register")?,
            line,
        )?);
    }

    let mnemonic_token = next_token(tokens, &mut pos, line, "opcode")?;
    let base = mnemonic_token.split('.').next().unwrap_or(mnemonic_token);
    let op = TraceOp::from_mnemonic(base).ok_or_else(|| TraceError::UnknownOpcode {
        line,
        opcode: mnemonic_token.to_string(),
    })?;

    let nsrc = parse_dec(
        next_token(tokens, &mut pos, line, "nsrc")?,
        line,
        "source count",
    )?;
    if nsrc > 8 {
        return Err(syntax(
            line,
            format!("source count {nsrc} is implausibly large"),
        ));
    }
    let mut srcs = Vec::with_capacity(nsrc as usize);
    for _ in 0..nsrc {
        srcs.push(parse_reg(
            next_token(tokens, &mut pos, line, "source register")?,
            line,
        )?);
    }

    let mem_width64 = parse_dec(
        next_token(tokens, &mut pos, line, "memory width")?,
        line,
        "memory width",
    )?;
    let mem_width = u32::try_from(mem_width64)
        .map_err(|_| syntax(line, format!("memory width {mem_width64} overflows u32")))?;

    let mut addresses = Vec::new();
    if mem_width > 0 {
        while pos < tokens.len() {
            addresses.push(parse_hex(
                next_token(tokens, &mut pos, line, "address")?,
                line,
                "address",
            )?);
        }
        if addresses.len() > 32 {
            return Err(syntax(line, "more than 32 addresses on one record"));
        }
    } else if pos < tokens.len() {
        return Err(syntax(
            line,
            format!(
                "unexpected trailing token `{}` after a non-memory record",
                tokens[pos]
            ),
        ));
    }

    Ok(TraceInstruction {
        pc,
        mask,
        dsts,
        op,
        srcs,
        mem_width,
        addresses,
    })
}

/// Parses a trace from its textual form.
///
/// # Errors
///
/// Returns a typed [`TraceError`] for any header or record that does not
/// match the grammar; malformed input never panics.
pub fn parse_str(source: &str) -> Result<TraceFile, TraceError> {
    let mut kernel_name: Option<String> = None;
    let mut grid_dim: Option<(u32, u32, u32)> = None;
    let mut block_dim: Option<(u32, u32, u32)> = None;
    let mut nregs: Option<u32> = None;
    let mut shmem: u32 = 0;
    let mut warps: Vec<WarpStream> = Vec::new();

    for (index, raw) in source.lines().enumerate() {
        let line = index + 1;
        let text = raw.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }

        if let Some(rest) = text.strip_prefix('-') {
            // Header directive: `-key words = value`.
            let (key, value) = rest
                .split_once('=')
                .ok_or_else(|| syntax(line, "header directive has no `=`"))?;
            let key = key.trim();
            let value = value.trim();
            match key {
                "kernel name" => {
                    if value.is_empty() {
                        return Err(syntax(line, "kernel name is empty"));
                    }
                    kernel_name = Some(value.to_string());
                }
                "grid dim" => grid_dim = Some(parse_dims(value, line, "grid dim")?),
                "block dim" => block_dim = Some(parse_dims(value, line, "block dim")?),
                "nregs" => {
                    let v = parse_dec(value, line, "nregs")?;
                    nregs = Some(
                        u32::try_from(v)
                            .map_err(|_| syntax(line, format!("nregs `{v}` overflows u32")))?,
                    );
                }
                "shmem" => {
                    let v = parse_dec(value, line, "shmem")?;
                    shmem = u32::try_from(v)
                        .map_err(|_| syntax(line, format!("shmem `{v}` overflows u32")))?;
                }
                // Real accelsim headers carry many more directives (binary
                // version, local memory base, ...); they do not affect
                // lowering and are ignored.
                _ => {}
            }
            continue;
        }

        if let Some(rest) = text.strip_prefix("warp") {
            let rest = rest.trim_start();
            if let Some(value) = rest.strip_prefix('=') {
                let id = parse_dec(value.trim(), line, "warp id")?;
                let warp_id = u32::try_from(id)
                    .map_err(|_| syntax(line, format!("warp id `{id}` overflows u32")))?;
                warps.push(WarpStream {
                    warp_id,
                    instructions: Vec::new(),
                });
                continue;
            }
        }

        // Anything else must be an instruction record inside a warp stream.
        let tokens: Vec<&str> = text.split_whitespace().collect();
        let record = parse_instruction(&tokens, line)?;
        match warps.last_mut() {
            Some(stream) => stream.instructions.push(record),
            None => {
                return Err(syntax(
                    line,
                    "instruction record before any `warp = N` line",
                ));
            }
        }
    }

    let header = KernelHeader {
        kernel_name: kernel_name.ok_or(TraceError::MissingHeader {
            directive: "-kernel name",
        })?,
        grid_dim: grid_dim.ok_or(TraceError::MissingHeader {
            directive: "-grid dim",
        })?,
        block_dim: block_dim.ok_or(TraceError::MissingHeader {
            directive: "-block dim",
        })?,
        nregs: nregs.ok_or(TraceError::MissingHeader {
            directive: "-nregs",
        })?,
        shmem,
    };

    if warps.is_empty() || warps[0].instructions.is_empty() {
        return Err(TraceError::EmptyTrace);
    }

    Ok(TraceFile { header, warps })
}

/// Renders a trace back to its canonical textual form.
///
/// `parse_str(&write_trace(t)) == Ok(t)` for every well-formed trace whose
/// records use at most [`Instruction::MAX_SOURCES`] sources — the roundtrip
/// property the crate's proptests pin.
///
/// [`Instruction::MAX_SOURCES`]: ltrf_isa::Instruction::MAX_SOURCES
#[must_use]
pub fn write_trace(trace: &TraceFile) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let h = &trace.header;
    let _ = writeln!(out, "-kernel name = {}", h.kernel_name);
    let _ = writeln!(
        out,
        "-grid dim = ({},{},{})",
        h.grid_dim.0, h.grid_dim.1, h.grid_dim.2
    );
    let _ = writeln!(
        out,
        "-block dim = ({},{},{})",
        h.block_dim.0, h.block_dim.1, h.block_dim.2
    );
    let _ = writeln!(out, "-nregs = {}", h.nregs);
    let _ = writeln!(out, "-shmem = {}", h.shmem);
    for warp in &trace.warps {
        let _ = writeln!(out);
        let _ = writeln!(out, "warp = {}", warp.warp_id);
        for inst in &warp.instructions {
            let _ = write!(out, "{:04x} {:08x} {}", inst.pc, inst.mask, inst.dsts.len());
            for d in &inst.dsts {
                let _ = write!(out, " R{d}");
            }
            let _ = write!(out, " {} {}", inst.op.mnemonic(), inst.srcs.len());
            for s in &inst.srcs {
                let _ = write!(out, " R{s}");
            }
            let _ = write!(out, " {}", inst.mem_width);
            if inst.mem_width > 0 {
                for a in &inst.addresses {
                    let _ = write!(out, " 0x{a:x}");
                }
            }
            let _ = writeln!(out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "\
# a tiny two-warp trace
-kernel name = vecadd
-grid dim = (2,1,1)
-block dim = (64,1,1)
-nregs = 10
-shmem = 128

warp = 0
0000 ffffffff 1 R2 MOV 0 0
0008 ffffffff 1 R4 LDG.E 1 R2 4 0x10000000 0x10000004
0010 ffffffff 0 EXIT 0 0

warp = 1
0000 ffffffff 1 R2 MOV 0 0
0010 ffffffff 0 EXIT 0 0
";

    #[test]
    fn parses_header_and_streams() {
        let t = parse_str(SMALL).unwrap();
        assert_eq!(t.header.kernel_name, "vecadd");
        assert_eq!(t.header.grid_dim, (2, 1, 1));
        assert_eq!(t.header.blocks_per_grid(), 2);
        assert_eq!(t.header.warps_per_block(), 2);
        assert_eq!(t.header.nregs, 10);
        assert_eq!(t.header.shmem, 128);
        assert_eq!(t.warps.len(), 2);
        assert_eq!(t.warps[0].warp_id, 0);
        let records: usize = t.warps.iter().map(|w| w.instructions.len()).sum();
        assert_eq!(records, 5);
        let ldg = &t.warps[0].instructions[1];
        assert_eq!(ldg.pc, 8);
        assert_eq!(ldg.op, TraceOp::Op(Opcode::LoadGlobal));
        assert_eq!(ldg.dsts, vec![4]);
        assert_eq!(ldg.srcs, vec![2]);
        assert_eq!(ldg.addresses, vec![0x1000_0000, 0x1000_0004]);
        assert_eq!(t.warps[0].instructions[2].op, TraceOp::Exit);
    }

    #[test]
    fn writer_roundtrips() {
        let t = parse_str(SMALL).unwrap();
        let rendered = write_trace(&t);
        assert_eq!(parse_str(&rendered).unwrap(), t);
    }

    #[test]
    fn unknown_directives_are_ignored() {
        let padded = SMALL.replace(
            "-nregs = 10",
            "-binary version = 80\n-nregs = 10\n-local mem base addr = 0x7f0000",
        );
        assert_eq!(parse_str(&padded).unwrap(), parse_str(SMALL).unwrap());
    }

    #[test]
    fn typed_errors_for_malformed_input() {
        type ErrorCheck = fn(&TraceError) -> bool;
        let cases: &[(&str, ErrorCheck)] = &[
            ("", |e| matches!(e, TraceError::MissingHeader { .. })),
            ("-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\nwarp = 0\n0000 ff 0 NOP 0 0\n", |e| {
                matches!(e, TraceError::MissingHeader { directive: "-nregs" })
            }),
            ("-kernel name k\n", |e| matches!(e, TraceError::Syntax { line: 1, .. })),
            ("-grid dim = (1,1)\n", |e| matches!(e, TraceError::Syntax { .. })),
            ("-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\n-nregs = 8\n0000 ff 0 NOP 0 0\n", |e| {
                matches!(e, TraceError::Syntax { line: 5, .. })
            }),
            ("-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\n-nregs = 8\nwarp = 0\n0000 ff 0 FROB 0 0\n", |e| {
                matches!(e, TraceError::UnknownOpcode { line: 6, .. })
            }),
            ("-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\n-nregs = 8\nwarp = 0\n0000 ff 1 R900 MOV 0 0\n", |e| {
                matches!(e, TraceError::RegisterOutOfRange { register: 900, .. })
            }),
            ("-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\n-nregs = 8\nwarp = 0\n0000 ff 1 R1 MOV 0\n", |e| {
                matches!(e, TraceError::Syntax { .. })
            }),
            ("-kernel name = k\n-grid dim = (1,1,1)\n-block dim = (32,1,1)\n-nregs = 8\nwarp = 0\n", |e| {
                matches!(e, TraceError::EmptyTrace)
            }),
        ];
        for (source, matches_expected) in cases {
            let err = parse_str(source).expect_err(source);
            assert!(
                matches_expected(&err),
                "unexpected error {err:?} for {source:?}"
            );
        }
    }

    #[test]
    fn every_mnemonic_roundtrips_through_its_canonical_form() {
        for m in [
            "BRA", "EXIT", "IADD", "IMAD", "FADD", "FFMA", "MUFU", "MOV", "ISETP", "LDG", "LDS",
            "LDC", "LDL", "STG", "STS", "STL", "BAR", "NOP",
        ] {
            let op = TraceOp::from_mnemonic(m).unwrap();
            assert_eq!(TraceOp::from_mnemonic(op.mnemonic()), Some(op));
        }
    }
}
