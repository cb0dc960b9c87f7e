package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped protobuf CPU profiles runtime/pprof
// writes, enough to attribute sampled CPU time to package paths without a
// dependency on the pprof tooling. Only the fields needed are decoded:
// samples (location IDs, values), locations (line → function IDs),
// functions (name string index) and the string table.

// cpuProfile is a decoded profile: each sample's stack as function names,
// leaf first, with the sample's CPU nanoseconds.
type cpuProfile struct {
	Stacks [][]string
	NS     []int64
}

// parseCPUProfile decodes a gzipped pprof profile.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location → function IDs, innermost first
		funcs   = map[uint64]uint64{}   // function → name string index
		strs    []string
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, w, v, b)
				case 2:
					s.values = pbUints(s.values, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := pbFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.Stacks = append(p.Stacks, stack)
		p.NS = append(p.NS, int64(s.values[len(s.values)-1]))
	}
	return p, nil
}

// pbFields walks the top-level fields of one protobuf message, handing
// varints as v and length-delimited fields as b.
func pbFields(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := pbVarint(buf)
		if n == 0 {
			return fmt.Errorf("pprof: bad field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(buf)
			if n == 0 {
				return fmt.Errorf("pprof: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return fmt.Errorf("pprof: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := pbVarint(buf)
			if n == 0 || uint64(len(buf)-n) < l {
				return fmt.Errorf("pprof: bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return fmt.Errorf("pprof: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated uint64 field, packed or not.
func pbUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// packageOf returns the import path of a profiled function name:
// "bless/internal/sim.(*GPU).reschedule" → "bless/internal/sim",
// "runtime.mallocgc" → "runtime".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// bucket names a layer and the package paths (each covering its
// subpackages) whose frames it owns.
type bucket struct {
	Name     string
	Packages []string
}

func (b bucket) owns(pkg string) bool {
	for _, p := range b.Packages {
		if pkg == p || strings.HasPrefix(pkg, p+"/") {
			return true
		}
	}
	return false
}

// attribute charges each sample to the bucket owning its innermost owned
// frame, so runtime work (allocation, channel operations) called from a
// layer counts as that layer's. Samples with no owned frame go to "other".
// It returns each bucket's share of the sampled CPU time and the total.
func attribute(p *cpuProfile, buckets []bucket) (map[string]float64, int64) {
	ns := map[string]int64{}
	var total int64
	for i, stack := range p.Stacks {
		total += p.NS[i]
		owner := "other"
	frames:
		for _, fn := range stack {
			pkg := packageOf(fn)
			for _, b := range buckets {
				if b.owns(pkg) {
					owner = b.Name
					break frames
				}
			}
		}
		ns[owner] += p.NS[i]
	}
	share := map[string]float64{}
	for _, b := range buckets {
		share[b.Name] = 0
	}
	share["other"] = 0
	if total == 0 {
		return share, 0
	}
	for k, v := range ns {
		share[k] = float64(v) / float64(total)
	}
	return share, total
}
