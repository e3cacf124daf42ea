// Package asm implements a small two-pass assembler for the simulator
// ISA. It exists so that the benchmark kernels (internal/kernels) and
// user programs (examples/customkernel) can be written as readable
// assembly text rather than hand-built instruction slices.
//
// Syntax, one instruction per line:
//
//	; comment            # comment
//	label:
//	    li    %o0, 4096          ; 64-bit immediate load
//	    add   %o1, %o2, %o3      ; rd, rs1, rs2
//	    add   %o1, %o2, 42       ; rd, rs1, imm
//	    ld    %o0, [%o1+8]       ; load, base+displacement
//	    ldi   %o0, [%o1+%o2]     ; load, base+index
//	    st    %o2, [%o1-16]      ; store, data register first
//	    sti   %o0, [%o1+%o2]     ; indexed store (3 register operands)
//	    beq   %o1, %o2, loop     ; compare-and-branch
//	    ba    done
//	    call  func               ; link register is %o7
//	    jr    %o7
//	    save
//	    restore
//	    fadd  %f0, %f1, %f2
//	    halt
//
// Register aliases: %sp = %o6, %fp = %i6, %ra = %o7, %zero = %g0.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"wsrs/internal/isa"
)

// Error describes an assembly failure with its source line.
type Error struct {
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

var mnemonics = map[string]isa.Op{
	"add": isa.OpADD, "sub": isa.OpSUB, "and": isa.OpAND, "andn": isa.OpANDN,
	"or": isa.OpOR, "orn": isa.OpORN, "xor": isa.OpXOR, "xnor": isa.OpXNOR,
	"sll": isa.OpSLL, "srl": isa.OpSRL, "sra": isa.OpSRA, "popc": isa.OpPOPC,
	"mov": isa.OpMOV, "li": isa.OpLI,
	"mul": isa.OpMUL, "div": isa.OpDIV, "udiv": isa.OpUDIV,
	"ld": isa.OpLD, "ldi": isa.OpLDI, "st": isa.OpST, "sti": isa.OpSTI,
	"fld": isa.OpFLD, "fldi": isa.OpFLDI, "fst": isa.OpFST, "fsti": isa.OpFSTI,
	"beq": isa.OpBEQ, "bne": isa.OpBNE, "blt": isa.OpBLT, "bge": isa.OpBGE,
	"ble": isa.OpBLE, "bgt": isa.OpBGT, "ba": isa.OpBA,
	"call": isa.OpCALL, "jr": isa.OpJR, "save": isa.OpSAVE, "restore": isa.OpRESTORE,
	"fadd": isa.OpFADD, "fsub": isa.OpFSUB, "fmul": isa.OpFMUL, "fdiv": isa.OpFDIV,
	"fsqrt": isa.OpFSQRT, "fneg": isa.OpFNEG, "fabs": isa.OpFABS, "fmov": isa.OpFMOV,
	"fitod": isa.OpFITOD, "fdtoi": isa.OpFDTOI,
	"fbeq": isa.OpFBEQ, "fbne": isa.OpFBNE, "fblt": isa.OpFBLT, "fbge": isa.OpFBGE,
	"nop": isa.OpNOP, "halt": isa.OpHALT,
}

var regAliases = map[string]isa.Reg{
	"sp": isa.OReg(6), "fp": isa.IReg(6), "ra": isa.OReg(7), "zero": isa.GReg(0),
}

// parseReg parses a register token like %g3, %o0, %l7, %i2, %f15 or an
// alias (%sp, %fp, %ra, %zero).
func parseReg(tok string, line int) (isa.Reg, error) {
	if !strings.HasPrefix(tok, "%") {
		return isa.Reg{}, errf(line, "expected register, got %q", tok)
	}
	name := tok[1:]
	if r, ok := regAliases[name]; ok {
		return r, nil
	}
	if len(name) < 2 {
		return isa.Reg{}, errf(line, "bad register %q", tok)
	}
	n, err := strconv.Atoi(name[1:])
	if err != nil {
		return isa.Reg{}, errf(line, "bad register %q", tok)
	}
	switch name[0] {
	case 'g':
		if n > 7 {
			return isa.Reg{}, errf(line, "register %q out of range", tok)
		}
		return isa.GReg(n), nil
	case 'o':
		if n > 7 {
			return isa.Reg{}, errf(line, "register %q out of range", tok)
		}
		return isa.OReg(n), nil
	case 'l':
		if n > 7 {
			return isa.Reg{}, errf(line, "register %q out of range", tok)
		}
		return isa.LReg(n), nil
	case 'i':
		if n > 7 {
			return isa.Reg{}, errf(line, "register %q out of range", tok)
		}
		return isa.IReg(n), nil
	case 'f':
		if n > 31 {
			return isa.Reg{}, errf(line, "register %q out of range", tok)
		}
		return isa.FPReg(n), nil
	}
	return isa.Reg{}, errf(line, "bad register %q", tok)
}

func parseImm(tok string, line int) (int64, error) {
	v, err := strconv.ParseInt(tok, 0, 64)
	if err == nil {
		return v, nil
	}
	// Accept full-width unsigned constants (e.g. 64-bit hash seeds);
	// they wrap into the signed register representation.
	u, uerr := strconv.ParseUint(tok, 0, 64)
	if uerr == nil {
		return int64(u), nil
	}
	return 0, errf(line, "bad immediate %q", tok)
}

// memOperand is a parsed [base+disp] or [base+index] operand.
type memOperand struct {
	base   isa.Reg
	index  isa.Reg
	imm    int64
	hasImm bool
}

// parseMem parses "[%r]", "[%r+imm]", "[%r-imm]" or "[%r+%r]".
func parseMem(tok string, line int) (memOperand, error) {
	var m memOperand
	if !strings.HasPrefix(tok, "[") || !strings.HasSuffix(tok, "]") {
		return m, errf(line, "expected memory operand, got %q", tok)
	}
	inner := tok[1 : len(tok)-1]
	// Find the +/- separator after the base register.
	sep := -1
	for i := 1; i < len(inner); i++ {
		if inner[i] == '+' || inner[i] == '-' {
			sep = i
			break
		}
	}
	if sep < 0 {
		base, err := parseReg(inner, line)
		if err != nil {
			return m, err
		}
		m.base, m.hasImm, m.imm = base, true, 0
		return m, nil
	}
	base, err := parseReg(strings.TrimSpace(inner[:sep]), line)
	if err != nil {
		return m, err
	}
	m.base = base
	rest := strings.TrimSpace(inner[sep:])
	if strings.HasPrefix(rest, "+%") || strings.HasPrefix(rest, "-%") {
		if rest[0] == '-' {
			return m, errf(line, "negative index register in %q", tok)
		}
		idx, err := parseReg(rest[1:], line)
		if err != nil {
			return m, err
		}
		m.index = idx
		return m, nil
	}
	imm, err := parseImm(rest, line)
	if err != nil {
		return m, err
	}
	m.hasImm, m.imm = true, imm
	return m, nil
}

// splitOperands splits an operand field on commas that are outside
// brackets.
func splitOperands(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	tail := strings.TrimSpace(s[start:])
	if tail != "" {
		out = append(out, tail)
	}
	return out
}

// Assemble parses assembly source into a Program. Labels may be
// referenced before their definition (two-pass resolution).
func Assemble(src string) (*isa.Program, error) {
	type pending struct {
		pc    int
		label string
		line  int
	}
	prog := &isa.Program{Symbols: map[string]int{}}
	var fixups []pending

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := ln + 1
		text := raw
		if i := strings.IndexAny(text, ";#"); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		// Leading labels, possibly several on one line.
		for {
			i := strings.Index(text, ":")
			if i < 0 {
				break
			}
			label := strings.TrimSpace(text[:i])
			if label == "" || strings.ContainsAny(label, " \t,[") {
				break
			}
			if _, dup := prog.Symbols[label]; dup {
				return nil, errf(line, "duplicate label %q", label)
			}
			prog.Symbols[label] = len(prog.Insts)
			text = strings.TrimSpace(text[i+1:])
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		mn := strings.ToLower(fields[0])
		op, ok := mnemonics[mn]
		if !ok {
			return nil, errf(line, "unknown mnemonic %q", mn)
		}
		rest := strings.TrimSpace(text[len(fields[0]):])
		ops := splitOperands(rest)

		in := isa.Inst{Op: op}
		switch {
		case op == isa.OpNOP || op == isa.OpHALT || op == isa.OpSAVE || op == isa.OpRESTORE:
			if len(ops) != 0 {
				return nil, errf(line, "%s takes no operands", mn)
			}

		case op == isa.OpLI:
			if len(ops) != 2 {
				return nil, errf(line, "li needs 2 operands")
			}
			rd, err := parseReg(ops[0], line)
			if err != nil {
				return nil, err
			}
			imm, err := parseImm(ops[1], line)
			if err != nil {
				return nil, err
			}
			in.Rd, in.Imm, in.HasImm = rd, imm, true

		case op == isa.OpMOV || op == isa.OpFMOV || op == isa.OpFNEG ||
			op == isa.OpFABS || op == isa.OpFSQRT || op == isa.OpPOPC ||
			op == isa.OpFITOD || op == isa.OpFDTOI:
			if len(ops) != 2 {
				return nil, errf(line, "%s needs 2 operands", mn)
			}
			rd, err := parseReg(ops[0], line)
			if err != nil {
				return nil, err
			}
			in.Rd = rd
			if strings.HasPrefix(ops[1], "%") {
				rs, err := parseReg(ops[1], line)
				if err != nil {
					return nil, err
				}
				in.Rs1 = rs
			} else if op == isa.OpMOV {
				imm, err := parseImm(ops[1], line)
				if err != nil {
					return nil, err
				}
				in.Imm, in.HasImm = imm, true
			} else {
				return nil, errf(line, "%s needs a register source", mn)
			}

		case op == isa.OpLD || op == isa.OpFLD || op == isa.OpLDI || op == isa.OpFLDI:
			if len(ops) != 2 {
				return nil, errf(line, "%s needs 2 operands", mn)
			}
			rd, err := parseReg(ops[0], line)
			if err != nil {
				return nil, err
			}
			m, err := parseMem(ops[1], line)
			if err != nil {
				return nil, err
			}
			in.Rd, in.Rs1 = rd, m.base
			if m.hasImm {
				in.Imm, in.HasImm = m.imm, true
				// Normalize: displacement loads are ld/fld.
				if op == isa.OpLDI {
					in.Op = isa.OpLD
				} else if op == isa.OpFLDI {
					in.Op = isa.OpFLD
				}
			} else {
				in.Rs2 = m.index
				if op == isa.OpLD {
					in.Op = isa.OpLDI
				} else if op == isa.OpFLD {
					in.Op = isa.OpFLDI
				}
			}

		case op == isa.OpST || op == isa.OpFST || op == isa.OpSTI || op == isa.OpFSTI:
			if len(ops) != 2 {
				return nil, errf(line, "%s needs 2 operands", mn)
			}
			data, err := parseReg(ops[0], line)
			if err != nil {
				return nil, err
			}
			m, err := parseMem(ops[1], line)
			if err != nil {
				return nil, err
			}
			in.Rs1 = m.base
			if m.hasImm {
				in.Rs2, in.Imm, in.HasImm = data, m.imm, true
				if op == isa.OpSTI {
					in.Op = isa.OpST
				} else if op == isa.OpFSTI {
					in.Op = isa.OpFST
				}
			} else {
				// Indexed store: 3 register operands, data in Rd.
				in.Rs2, in.Rd = m.index, data
				if op == isa.OpST {
					in.Op = isa.OpSTI
				} else if op == isa.OpFST {
					in.Op = isa.OpFSTI
				}
			}

		case isa.IsCondBranch(op):
			if len(ops) != 3 {
				return nil, errf(line, "%s needs 3 operands", mn)
			}
			rs1, err := parseReg(ops[0], line)
			if err != nil {
				return nil, err
			}
			rs2, err := parseReg(ops[1], line)
			if err != nil {
				return nil, err
			}
			in.Rs1, in.Rs2, in.Label = rs1, rs2, ops[2]
			fixups = append(fixups, pending{len(prog.Insts), ops[2], line})

		case op == isa.OpBA:
			if len(ops) != 1 {
				return nil, errf(line, "ba needs 1 operand")
			}
			in.Label = ops[0]
			fixups = append(fixups, pending{len(prog.Insts), ops[0], line})

		case op == isa.OpCALL:
			if len(ops) != 1 {
				return nil, errf(line, "call needs 1 operand")
			}
			in.Rd = isa.OReg(7) // link register %o7
			in.Label = ops[0]
			fixups = append(fixups, pending{len(prog.Insts), ops[0], line})

		case op == isa.OpJR:
			if len(ops) != 1 {
				return nil, errf(line, "jr needs 1 operand")
			}
			rs, err := parseReg(ops[0], line)
			if err != nil {
				return nil, err
			}
			in.Rs1 = rs

		default: // three-operand ALU / FP forms
			if len(ops) != 3 {
				return nil, errf(line, "%s needs 3 operands", mn)
			}
			rd, err := parseReg(ops[0], line)
			if err != nil {
				return nil, err
			}
			rs1, err := parseReg(ops[1], line)
			if err != nil {
				return nil, err
			}
			in.Rd, in.Rs1 = rd, rs1
			if strings.HasPrefix(ops[2], "%") {
				rs2, err := parseReg(ops[2], line)
				if err != nil {
					return nil, err
				}
				in.Rs2 = rs2
			} else {
				if isa.IsFP(op) {
					return nil, errf(line, "%s does not take an immediate", mn)
				}
				imm, err := parseImm(ops[2], line)
				if err != nil {
					return nil, err
				}
				in.Imm, in.HasImm = imm, true
			}
		}
		prog.Insts = append(prog.Insts, in)
	}

	for _, f := range fixups {
		pc, ok := prog.Symbols[f.label]
		if !ok {
			return nil, errf(f.line, "undefined label %q", f.label)
		}
		prog.Insts[f.pc].Target = pc
	}
	return prog, nil
}
