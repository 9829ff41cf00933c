// Package tuple implements the tuples stored in relations: flat slices of
// typed values validated against a schema, with key projection, hashing and
// a binary codec built from the value codec.
package tuple

import (
	"fmt"
	"hash/fnv"
	"strings"

	"tdb/internal/schema"
	"tdb/internal/value"
)

// Tuple is an ordered list of attribute values. Tuples are treated as
// immutable once handed to a store; Clone before mutating.
type Tuple []value.Value

// New builds a tuple from values.
func New(vals ...value.Value) Tuple { return Tuple(vals) }

// Validate checks the tuple against a schema: arity and per-attribute kind.
func (t Tuple) Validate(s *schema.Schema) error {
	if len(t) != s.Arity() {
		return fmt.Errorf("tuple: arity %d does not match schema arity %d", len(t), s.Arity())
	}
	for i, v := range t {
		if want := s.Attr(i).Type; v.Kind() != want {
			return fmt.Errorf("tuple: attribute %q: have %s, want %s", s.Attr(i).Name, v.Kind(), want)
		}
	}
	return nil
}

// Key projects the tuple onto the schema's key attributes; with no explicit
// key the whole tuple is the key.
func (t Tuple) Key(s *schema.Schema) Tuple {
	ks := s.KeyIndices()
	if len(ks) == 0 {
		return t
	}
	out := make(Tuple, len(ks))
	for i, k := range ks {
		out[i] = t[k]
	}
	return out
}

// Project returns the tuple restricted to the given attribute positions in
// the given order.
func (t Tuple) Project(indices []int) Tuple {
	out := make(Tuple, len(indices))
	for i, idx := range indices {
		out[i] = t[idx]
	}
	return out
}

// Concat returns the concatenation of two tuples (cartesian product rows).
func Concat(a, b Tuple) Tuple {
	out := make(Tuple, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// Equal reports whether two tuples agree value-for-value. This is the
// paper's "value-equivalence": tuples that may differ in their (implicit)
// time stamps but carry the same data.
func Equal(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// Hash64 returns a stable hash of the tuple contents.
func (t Tuple) Hash64() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range t {
		u := v.Hash64()
		buf[0] = byte(u)
		buf[1] = byte(u >> 8)
		buf[2] = byte(u >> 16)
		buf[3] = byte(u >> 24)
		buf[4] = byte(u >> 32)
		buf[5] = byte(u >> 40)
		buf[6] = byte(u >> 48)
		buf[7] = byte(u >> 56)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Clone returns an independent copy.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as a parenthesized value list.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ExactKey returns an unambiguous grouping key for the tuple: its
// kind-tagged, length-prefixed binary encoding. Two tuples share a key
// exactly when they agree kind for kind and bit for bit, whatever their
// strings contain — unlike any key built from the display rendering.
func (t Tuple) ExactKey() string {
	var buf [64]byte // most keys fit: the string copy is then the only allocation
	return string(t.AppendBinary(buf[:0]))
}

// AppendBinary appends the encoded tuple (arity-prefixed) to dst.
func (t Tuple) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(len(t)), byte(len(t)>>8))
	for _, v := range t {
		dst = v.AppendBinary(dst)
	}
	return dst
}

// DecodeBinary decodes one tuple from the front of src, returning it and the
// bytes consumed.
func DecodeBinary(src []byte) (Tuple, int, error) {
	if len(src) < 2 {
		return nil, 0, fmt.Errorf("tuple: short arity prefix")
	}
	arity := int(src[0]) | int(src[1])<<8
	off := 2
	out := make(Tuple, 0, arity)
	for i := 0; i < arity; i++ {
		v, n, err := value.DecodeBinary(src[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("tuple: attribute %d: %w", i, err)
		}
		out = append(out, v)
		off += n
	}
	return out, off, nil
}
