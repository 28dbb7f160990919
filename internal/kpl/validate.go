package kpl

import (
	"fmt"
	"sort"
	"strconv"
)

// Validate checks the kernel for structural errors — references to
// undeclared buffers or parameters, duplicate or missing loop labels, and
// break statements outside loops — and assigns labels to unlabeled loops.
// Back ends call it once at registration time so that launch-time failures
// are limited to data-dependent errors.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("kpl: kernel with empty name")
	}
	seenBuf := map[string]bool{}
	for _, b := range k.Bufs {
		if b.Name == "" {
			return fmt.Errorf("kpl: %s: buffer with empty name", k.Name)
		}
		if seenBuf[b.Name] {
			return fmt.Errorf("kpl: %s: duplicate buffer %q", k.Name, b.Name)
		}
		seenBuf[b.Name] = true
	}
	seenParam := map[string]bool{}
	for _, p := range k.Params {
		if p.Name == "" {
			return fmt.Errorf("kpl: %s: parameter with empty name", k.Name)
		}
		if seenParam[p.Name] {
			return fmt.Errorf("kpl: %s: duplicate parameter %q", k.Name, p.Name)
		}
		seenParam[p.Name] = true
	}

	v := &validator{k: k, labels: map[string]bool{}}
	if err := v.stmts(k.Body, 0); err != nil {
		return err
	}
	return nil
}

type validator struct {
	k      *Kernel
	labels map[string]bool
	nAuto  int
}

func (v *validator) stmts(ss []Stmt, loopDepth int) error {
	for _, s := range ss {
		switch x := s.(type) {
		case *LetStmt:
			if x.Name == "" {
				return fmt.Errorf("kpl: %s: let with empty variable name", v.k.Name)
			}
			if err := v.expr(x.E); err != nil {
				return err
			}
		case *StoreStmt:
			if v.k.Buf(x.Buf) == nil {
				return fmt.Errorf("kpl: %s: store to undeclared buffer %q", v.k.Name, x.Buf)
			}
			if v.k.Buf(x.Buf).ReadOnly {
				return fmt.Errorf("kpl: %s: store to read-only buffer %q", v.k.Name, x.Buf)
			}
			if err := v.expr(x.Idx); err != nil {
				return err
			}
			if err := v.expr(x.Val); err != nil {
				return err
			}
		case *AtomicAddStmt:
			if v.k.Buf(x.Buf) == nil {
				return fmt.Errorf("kpl: %s: atomic on undeclared buffer %q", v.k.Name, x.Buf)
			}
			if err := v.expr(x.Idx); err != nil {
				return err
			}
			if err := v.expr(x.Val); err != nil {
				return err
			}
		case *ForStmt:
			if x.Label == "" {
				v.nAuto++
				x.Label = fmt.Sprintf("loop%d", v.nAuto)
			}
			if v.labels[x.Label] {
				return fmt.Errorf("kpl: %s: duplicate loop label %q", v.k.Name, x.Label)
			}
			v.labels[x.Label] = true
			if x.Var == "" {
				return fmt.Errorf("kpl: %s: loop %q with empty variable", v.k.Name, x.Label)
			}
			if err := v.expr(x.Start); err != nil {
				return err
			}
			if err := v.expr(x.End); err != nil {
				return err
			}
			if err := v.stmts(x.Body, loopDepth+1); err != nil {
				return err
			}
		case *IfStmt:
			if err := v.expr(x.Cond); err != nil {
				return err
			}
			if err := v.stmts(x.Then, loopDepth); err != nil {
				return err
			}
			if err := v.stmts(x.Else, loopDepth); err != nil {
				return err
			}
		case *BreakStmt:
			if loopDepth == 0 {
				return fmt.Errorf("kpl: %s: break outside loop", v.k.Name)
			}
		default:
			return fmt.Errorf("kpl: %s: unknown statement %T", v.k.Name, s)
		}
	}
	return nil
}

func (v *validator) expr(e Expr) error {
	switch x := e.(type) {
	case *Const, *TIDExpr, *NTExpr, *VarExpr:
		return nil
	case *ParamExpr:
		if v.k.Param(x.Name) == nil {
			return fmt.Errorf("kpl: %s: undeclared parameter %q", v.k.Name, x.Name)
		}
		return nil
	case *BinExpr:
		if err := v.expr(x.A); err != nil {
			return err
		}
		return v.expr(x.B)
	case *UnExpr:
		return v.expr(x.A)
	case *LoadExpr:
		if v.k.Buf(x.Buf) == nil {
			return fmt.Errorf("kpl: %s: load from undeclared buffer %q", v.k.Name, x.Buf)
		}
		return v.expr(x.Idx)
	case *CastExpr:
		return v.expr(x.A)
	case *SelExpr:
		if err := v.expr(x.Cond); err != nil {
			return err
		}
		if err := v.expr(x.A); err != nil {
			return err
		}
		return v.expr(x.B)
	case nil:
		return fmt.Errorf("kpl: %s: nil expression", v.k.Name)
	default:
		return fmt.Errorf("kpl: %s: unknown expression %T", v.k.Name, e)
	}
}

// Signature returns a stable structural fingerprint of the kernel. The
// Re-scheduler's Kernel Match stage (paper Fig. 2) uses it to decide whether
// requests from different VPs invoke the *identical* kernel and are therefore
// eligible for Kernel Coalescing.
func (k *Kernel) Signature() uint64 {
	h := sigHash(fnvOffset64)
	h.str(k.Name)
	names := make([]string, 0, len(k.Bufs))
	for _, b := range k.Bufs {
		names = append(names, b.Name+":"+b.Elem.String()+":"+strconv.Itoa(int(b.Access))+":"+strconv.FormatBool(b.ReadOnly))
	}
	sort.Strings(names)
	for _, n := range names {
		h.str(n)
	}
	for _, p := range k.Params {
		h.str(p.Name)
		h.str(":")
		h.str(p.T.String())
	}
	h.stmts(k.Body)
	return uint64(h)
}

// FNV-1a/64 constants (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// sigHash is an allocation-free FNV-1a/64 state for Signature, which every
// launch's timing key and every coalescing key computes.
type sigHash uint64

func (h *sigHash) str(s string) {
	for i := 0; i < len(s); i++ {
		*h ^= sigHash(s[i])
		*h *= fnvPrime64
	}
}

func (h *sigHash) bytes(b []byte) {
	for _, c := range b {
		*h ^= sigHash(c)
		*h *= fnvPrime64
	}
}

func (h *sigHash) int(v int64) {
	var buf [24]byte
	h.bytes(strconv.AppendInt(buf[:0], v, 10))
}

func (h *sigHash) stmts(ss []Stmt) {
	for _, s := range ss {
		switch x := s.(type) {
		case *LetStmt:
			h.str("let ")
			h.str(x.Name)
			h.str("=")
			h.expr(x.E)
		case *StoreStmt:
			h.str("st ")
			h.str(x.Buf)
			h.str("[")
			h.expr(x.Idx)
			h.str("]=")
			h.expr(x.Val)
		case *AtomicAddStmt:
			h.str("atom ")
			h.str(x.Buf)
			h.str("[")
			h.expr(x.Idx)
			h.str("]+=")
			h.expr(x.Val)
		case *ForStmt:
			h.str("for ")
			h.str(x.Var)
			h.str(" ")
			h.expr(x.Start)
			h.expr(x.End)
			h.stmts(x.Body)
			h.str("rof")
		case *IfStmt:
			h.str("if ")
			h.expr(x.Cond)
			h.stmts(x.Then)
			h.str("else")
			h.stmts(x.Else)
		case *BreakStmt:
			h.str("break")
		}
	}
}

func (h *sigHash) expr(e Expr) {
	switch x := e.(type) {
	case *Const:
		var buf [32]byte
		h.str("c")
		h.int(int64(x.T))
		h.str(":")
		h.bytes(strconv.AppendFloat(buf[:0], x.F, 'g', -1, 64))
		h.str(":")
		h.int(x.I)
	case *TIDExpr:
		h.str("tid")
	case *NTExpr:
		h.str("nt")
	case *ParamExpr:
		h.str("p")
		h.str(x.Name)
	case *VarExpr:
		h.str("v")
		h.str(x.Name)
	case *BinExpr:
		h.str("b")
		h.int(int64(x.Op))
		h.str("(")
		h.expr(x.A)
		h.str(",")
		h.expr(x.B)
		h.str(")")
	case *UnExpr:
		h.str("u")
		h.int(int64(x.Op))
		h.str("(")
		h.expr(x.A)
		h.str(")")
	case *LoadExpr:
		h.str("ld ")
		h.str(x.Buf)
		h.str("[")
		h.expr(x.Idx)
		h.str("]")
	case *CastExpr:
		h.str("cast")
		h.int(int64(x.T))
		h.str("(")
		h.expr(x.A)
		h.str(")")
	case *SelExpr:
		h.str("sel(")
		h.expr(x.Cond)
		h.expr(x.A)
		h.expr(x.B)
		h.str(")")
	}
}
