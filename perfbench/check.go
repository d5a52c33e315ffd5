package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"

	"goldilocks/internal/cluster"
)

// checkReport is the correctness gate every EpochReport passes: no NaN or
// Inf in any float field, availability in [0,1], no more active servers
// than exist and no more shed containers than were offered.
func checkReport(rep cluster.EpochReport, servers, containers int) error {
	if field, ok := allFinite(reflect.ValueOf(rep), "EpochReport"); !ok {
		return fmt.Errorf("epoch %d: %s is not finite", rep.Epoch, field)
	}
	if rep.Availability < 0 || rep.Availability > 1 {
		return fmt.Errorf("epoch %d: availability %v outside [0,1]", rep.Epoch, rep.Availability)
	}
	if rep.ActiveServers > servers {
		return fmt.Errorf("epoch %d: %d active servers of %d", rep.Epoch, rep.ActiveServers, servers)
	}
	if rep.AdmissionRejected > containers {
		return fmt.Errorf("epoch %d: %d shed containers of %d offered", rep.Epoch, rep.AdmissionRejected, containers)
	}
	return nil
}

// allFinite walks every float in v (structs and arrays included) and
// names the first NaN or Inf.
func allFinite(v reflect.Value, path string) (string, bool) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		return path, !math.IsNaN(f) && !math.IsInf(f, 0)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p, ok := allFinite(v.Field(i), path+"."+v.Type().Field(i).Name); !ok {
				return p, false
			}
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if p, ok := allFinite(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); !ok {
				return p, false
			}
		}
	}
	return "", true
}

// digest is an FNV-64a hash of a report stream. Every field goes in
// bit-exactly, so two streams hash equal only if the program behaved
// identically.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) add(rep cluster.EpochReport) { hashValue(d.h, reflect.ValueOf(rep)) }

func (d digest) sum() uint64 { return d.h.Sum64() }

func hashValue(h hash.Hash64, v reflect.Value) {
	var b [8]byte
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		binary.LittleEndian.PutUint64(b[:], uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			b[0] = 1
		}
	case reflect.String:
		binary.LittleEndian.PutUint64(b[:], uint64(v.Len()))
		h.Write(b[:])
		h.Write([]byte(v.String()))
		return
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashValue(h, v.Field(i))
		}
		return
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
		return
	default:
		panic(fmt.Sprintf("digest: unhandled kind %v", v.Kind()))
	}
	h.Write(b[:])
}
