package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto
// message. selfByPackage decodes just enough of it to charge each
// sample's value to the package of its innermost frame (flat, or self,
// time), which is what the *.host_self_pct metrics report.

var errProto = errors.New("malformed profile")

// protoField is one decoded protobuf field.
type protoField struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited payload
}

func protoFields(b []byte, fn func(f protoField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated integer field's values, packed or not.
func varints(f protoField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// selfByPackage returns each package's share of the profile's sampled
// CPU time (values sum to 1) and the total sampled nanoseconds.
func selfByPackage(gz []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		loc uint64
		val uint64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id -> innermost function id
	funcName := map[uint64]uint64{} // function id -> string index
	var strs []string
	err = protoFields(raw, func(f protoField) error {
		switch f.num {
		case 2: // sample
			var locs, vals []uint64
			err := protoFields(f.b, func(g protoField) error {
				var err error
				switch g.num {
				case 1:
					locs, err = varints(g, locs)
				case 2:
					vals, err = varints(g, vals)
				}
				return err
			})
			if err != nil || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			samples = append(samples, sample{loc: locs[0], val: vals[len(vals)-1]})
		case 4: // location
			var id, fn uint64
			seenLine := false
			err := protoFields(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					if seenLine {
						return nil
					}
					seenLine = true
					return protoFields(g.b, func(h protoField) error {
						if h.num == 1 {
							fn = h.v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id, name uint64
			err := protoFields(f.b, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		pkg := "unknown"
		if idx, ok := funcName[locFunc[s.loc]]; ok && int(idx) < len(strs) {
			pkg = packageOf(strs[idx])
		}
		shares[pkg] += float64(s.val)
		total += float64(s.val)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, total, nil
}

// packageOf extracts the import path from a qualified Go function name
// such as "mpicomp/internal/mpi.(*Rank).bcast.func1".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerPackages maps each reported layer to the packages whose self time
// it sums.
var layerPackages = map[string][]string{
	"codec":   {"mpicomp/internal/mpc", "mpicomp/internal/zfp", "mpicomp/internal/bitstream"},
	"core":    {"mpicomp/internal/core"},
	"mpi":     {"mpicomp/internal/mpi"},
	"awpodc":  {"mpicomp/internal/awpodc"},
	"dask":    {"mpicomp/internal/dask"},
	"runtime": {"runtime"},
}

// layerShares sums package shares into layers, in percent. Runtime
// includes its internal subpackages.
func layerShares(pkgs map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for layer, list := range layerPackages {
		for _, p := range list {
			out[layer] += 100 * pkgs[p]
		}
	}
	for p, v := range pkgs {
		if strings.HasPrefix(p, "runtime/") || strings.HasPrefix(p, "internal/runtime/") {
			out["runtime"] += 100 * v
		}
	}
	return out
}
