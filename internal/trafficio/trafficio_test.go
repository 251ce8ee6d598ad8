package trafficio

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"ovs/internal/roadnet"
	"ovs/internal/sim"
	"ovs/internal/tensor"
)

func TestNetworkRoundTrip(t *testing.T) {
	net := roadnet.Grid(roadnet.GridConfig{Rows: 3, Cols: 2})
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, net); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != net.NumNodes() || got.NumLinks() != net.NumLinks() {
		t.Fatalf("round trip changed sizes: %d/%d vs %d/%d",
			got.NumNodes(), got.NumLinks(), net.NumNodes(), net.NumLinks())
	}
	for i := range net.Links {
		if net.Links[i] != got.Links[i] {
			t.Fatalf("link %d differs after round trip", i)
		}
	}
	for i := range net.Nodes {
		if net.Nodes[i] != got.Nodes[i] {
			t.Fatalf("node %d differs after round trip", i)
		}
	}
}

func TestReadNetworkRejectsGarbage(t *testing.T) {
	cases := []string{
		`{`, // syntax
		`{"nodes":[{"id":5,"x":0,"y":0}],"links":[]}`, // sparse IDs
		`{"nodes":[{"id":0,"x":0,"y":0},{"id":1,"x":1,"y":0}],"links":[{"from":0,"to":9,"length":1,"lanes":1,"speed_limit":1}]}`,  // bad endpoint
		`{"nodes":[{"id":0,"x":0,"y":0},{"id":1,"x":1,"y":0}],"links":[{"from":0,"to":1,"length":-1,"lanes":1,"speed_limit":1}]}`, // bad length
	}
	for i, c := range cases {
		if _, err := ReadNetwork(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted invalid input", i)
		}
	}
}

func TestDemandRoundTrip(t *testing.T) {
	g := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	d := sim.Demand{ODs: []sim.ODNodes{{Origin: 0, Dest: 5}, {Origin: 3, Dest: 1}}, G: g}
	var buf bytes.Buffer
	if err := WriteDemand(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDemand(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ODs) != 2 || got.ODs[1].Origin != 3 {
		t.Fatalf("ODs wrong after round trip: %+v", got.ODs)
	}
	if !tensor.AllClose(got.G, g, 0) {
		t.Fatalf("G wrong after round trip: %v", got.G)
	}
}

func TestReadDemandRejectsMismatch(t *testing.T) {
	cases := []string{
		`{"ods":[],"g":[]}`,
		`{"ods":[[0,1]],"g":[[1,2],[3,4]]}`,
		`{"ods":[[0,1],[1,0]],"g":[[1,2],[3]]}`,
		`{"ods":[[0,1]],"g":[[]]}`,
	}
	for i, c := range cases {
		if _, err := ReadDemand(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted invalid demand", i)
		}
	}
}

func TestWriteResult(t *testing.T) {
	net := roadnet.Grid(roadnet.GridConfig{Rows: 2, Cols: 2})
	s := sim.New(net, sim.Config{Intervals: 2, IntervalSec: 120, Seed: 1})
	res, err := s.RunCtx(context.Background(), sim.Demand{
		ODs: []sim.ODNodes{{Origin: 0, Dest: 3}},
		G:   tensor.Full(3, 1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, key := range []string{`"volume"`, `"entries"`, `"speed"`, `"spawned"`} {
		if !strings.Contains(out, key) {
			t.Fatalf("result JSON missing %s", key)
		}
	}
}

func TestImportOSM(t *testing.T) {
	doc := `{
		"nodes": [
			{"id": 100, "lat": 40.0000, "lon": -77.0000},
			{"id": 200, "lat": 40.0010, "lon": -77.0000},
			{"id": 300, "lat": 40.0010, "lon": -77.0010}
		],
		"ways": [
			{"nodes": [100, 200], "lanes": 2, "maxspeed_kmh": 60},
			{"nodes": [200, 300], "oneway": true}
		]
	}`
	net, err := ImportOSM(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != 3 {
		t.Fatalf("nodes = %d", net.NumNodes())
	}
	// First way bidirectional (2 links), second oneway (1 link).
	if net.NumLinks() != 3 {
		t.Fatalf("links = %d, want 3", net.NumLinks())
	}
	// 0.001° of latitude ≈ 111 m.
	if l := net.Links[0].Length; math.Abs(l-111) > 3 {
		t.Fatalf("link length = %v m, want ≈111", l)
	}
	if net.Links[0].Lanes != 2 || math.Abs(net.Links[0].SpeedLimit-60.0/3.6) > 1e-9 {
		t.Fatalf("way attributes not applied: %+v", net.Links[0])
	}
	// Defaults on the second way: 1 lane, 50 km/h.
	last := net.Links[2]
	if last.Lanes != 1 || math.Abs(last.SpeedLimit-50.0/3.6) > 1e-9 {
		t.Fatalf("defaults not applied: %+v", last)
	}
}

func TestImportOSMErrors(t *testing.T) {
	cases := []string{
		`{"nodes":[],"ways":[]}`,
		`{"nodes":[{"id":1,"lat":0,"lon":0},{"id":1,"lat":1,"lon":1}],"ways":[]}`,                // dup id
		`{"nodes":[{"id":1,"lat":0,"lon":0}],"ways":[{"nodes":[1]}]}`,                            // short way
		`{"nodes":[{"id":1,"lat":0,"lon":0}],"ways":[{"nodes":[1,2]}]}`,                          // unknown ref
		`{"nodes":[{"id":1,"lat":0,"lon":0},{"id":2,"lat":0,"lon":0}],"ways":[{"nodes":[1,2]}]}`, // coincident
	}
	for i, c := range cases {
		if _, err := ImportOSM(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted invalid OSM", i)
		}
	}
}
