package consensus

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecodeMessage feeds arbitrary consensus-channel frames to the
// decoder. No frame may panic it, and what it accepts must survive a
// re-encode: decode(encode(decode(x))) == decode(x). The round trip is on
// the decoded message, not the bytes, because Bool reads any non-zero byte
// as true and writes it back as 1. testdata/fuzz holds one encoding of
// each message kind as the seed corpus (TestFuzzSeedsCoverEveryKind).
func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := decodeMessage(frame)
		if err != nil {
			return
		}
		back, err := decodeMessage(m.encode())
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", m, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip: %+v, want %+v", back, m)
		}
	})
}

// TestFuzzSeedsCoverEveryKind: every message-kind constant declared in
// messages.go has a FuzzDecodeMessage seed that decodes to it, and a name
// in the simulator's trace, so a new kind cannot ship without either.
func TestFuzzSeedsCoverEveryKind(t *testing.T) {
	kinds := messageKinds(t)
	if len(kinds) == 0 {
		t.Fatal("found no message-kind constants in messages.go")
	}
	seeded := make(map[uint8][]string)
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeMessage")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		frame, err := seedFrame(string(raw))
		if err != nil {
			t.Fatalf("seed %s: %v", e.Name(), err)
		}
		if m, err := decodeMessage(frame); err == nil {
			seeded[m.kind] = append(seeded[m.kind], e.Name())
		}
	}
	for name, kind := range kinds {
		if len(seeded[kind]) == 0 {
			t.Errorf("%s (%d) has no seed under %s that decodes to it", name, kind, dir)
		}
		if kindNames[kind] == "" {
			t.Errorf("%s (%d) has no name in kindNames", name, kind)
		}
	}
}

// messageKinds returns the message-kind constants of messages.go (the
// uint8 constants named m<Kind>) with their values.
func messageKinds(t *testing.T) map[string]uint8 {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "messages.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]uint8)
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != "uint8" {
				continue
			}
			for i, name := range vs.Names {
				if !strings.HasPrefix(name.Name, "m") {
					continue
				}
				var lit *ast.BasicLit
				if i < len(vs.Values) {
					lit, _ = vs.Values[i].(*ast.BasicLit)
				}
				if lit == nil {
					t.Fatalf("%s: want an integer literal value", name.Name)
				}
				v, err := strconv.ParseUint(lit.Value, 0, 8)
				if err != nil {
					t.Fatalf("%s: %v", name.Name, err)
				}
				kinds[name.Name] = uint8(v)
			}
		}
	}
	return kinds
}

// seedFrame parses a one-value []byte corpus file of the go fuzzing
// engine.
func seedFrame(file string) ([]byte, error) {
	head, body, _ := strings.Cut(strings.TrimSpace(file), "\n")
	body, ok := strings.CutPrefix(body, "[]byte(")
	if head != "go test fuzz v1" || !ok || !strings.HasSuffix(body, ")") {
		return nil, strconv.ErrSyntax
	}
	s, err := strconv.Unquote(strings.TrimSuffix(body, ")"))
	return []byte(s), err
}
