package topology

import (
	"fmt"

	"goldilocks/internal/power"
	"goldilocks/internal/resources"
)

// Config parameterizes the generic hierarchical builders.
type Config struct {
	// ServerCapacity is the homogeneous per-server resource capacity.
	ServerCapacity resources.Vector
	// ServerModel is the per-server power model.
	ServerModel power.ServerModel
	// ServerLinkMbps is the NIC speed (the server's outbound link).
	ServerLinkMbps float64
}

// NewLeafSpine builds the paper's testbed network (§V): `leaves` leaf
// switches each connecting `serversPerLeaf` servers, fully meshed to
// `spines` spine switches. Rack outbound capacity is spines × uplinkMbps
// (one uplink per spine per leaf).
func NewLeafSpine(leaves, serversPerLeaf, spines int, uplinkMbps float64, leafSwitch, spineSwitch power.SwitchModel, cfg Config) (*Topology, error) {
	if leaves <= 0 || serversPerLeaf <= 0 || spines <= 0 {
		return nil, fmt.Errorf("topology: invalid leaf-spine shape %d×%d/%d", leaves, serversPerLeaf, spines)
	}
	t := &Topology{Name: fmt.Sprintf("leaf-spine-%dx%d", leaves, serversPerLeaf)}
	root := &Node{ID: 0, Level: LevelRoot, ServerID: -1,
		Switches: []SwitchGroup{{Model: spineSwitch, Count: spines}}}
	nextID := 1
	for l := 0; l < leaves; l++ {
		rack := &Node{
			ID: nextID, Level: LevelRack, Parent: root, ServerID: -1,
			Uplink:   &Link{CapacityMbps: float64(spines) * uplinkMbps},
			Switches: []SwitchGroup{{Model: leafSwitch, Count: 1}},
		}
		nextID++
		for s := 0; s < serversPerLeaf; s++ {
			sid := len(t.ServerNode)
			leaf := &Node{
				ID: nextID, Level: LevelServer, Parent: rack, ServerID: sid,
				Uplink:    &Link{CapacityMbps: cfg.ServerLinkMbps},
				ServerIDs: []int{sid},
			}
			nextID++
			rack.Children = append(rack.Children, leaf)
			rack.ServerIDs = append(rack.ServerIDs, sid)
			t.ServerNode = append(t.ServerNode, leaf)
			t.Capacity = append(t.Capacity, cfg.ServerCapacity)
			t.Server = append(t.Server, cfg.ServerModel)
			t.nodes = append(t.nodes, leaf)
		}
		root.Children = append(root.Children, rack)
		root.ServerIDs = append(root.ServerIDs, rack.ServerIDs...)
		t.nodes = append(t.nodes, rack)
	}
	t.nodes = append(t.nodes, root)
	t.Root = root
	t.index()
	return t, nil
}

// NewTestbed builds the exact 16-server testbed of §V: 8 leaf switches
// (VLANs on HPE 3800s) with 2 servers each, 2 spines, 1G server NICs.
func NewTestbed() *Topology {
	cfg := Config{
		// 32-core AMD Opteron 6272, 64 GB, 1G NIC.
		ServerCapacity: resources.New(3200, 64*1024, 1000),
		ServerModel:    power.TestbedOpteron,
		ServerLinkMbps: 1000,
	}
	t, err := NewLeafSpine(8, 2, 2, 1000, power.TestbedHPE3800, power.TestbedHPE3800, cfg)
	if err != nil {
		panic(err) // shape constants are valid by construction
	}
	t.Name = "testbed-16"
	return t
}

// NewFatTree builds a k-ary fat-tree (k even): k pods of k/2 racks with k/2
// servers each (k³/4 servers), 1 edge switch per rack, k/2 aggregation
// switches per pod, (k/2)² core switches — 5k²/4 switches total. All links
// run at cfg.ServerLinkMbps, giving full bisection bandwidth: rack outbound
// = k/2 links, pod outbound = (k/2)² links.
func NewFatTree(k int, edgeSwitch, aggSwitch, coreSwitch power.SwitchModel, cfg Config) (*Topology, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat-tree arity %d must be even and ≥ 2", k)
	}
	half := k / 2
	t := &Topology{Name: fmt.Sprintf("fat-tree-%d", k)}
	root := &Node{ID: 0, Level: LevelRoot, ServerID: -1,
		Switches: []SwitchGroup{{Model: coreSwitch, Count: half * half}}}
	nextID := 1
	for p := 0; p < k; p++ {
		pod := &Node{
			ID: nextID, Level: LevelPod, Parent: root, ServerID: -1,
			Uplink:   &Link{CapacityMbps: float64(half*half) * cfg.ServerLinkMbps},
			Switches: []SwitchGroup{{Model: aggSwitch, Count: half}},
		}
		nextID++
		for r := 0; r < half; r++ {
			rack := &Node{
				ID: nextID, Level: LevelRack, Parent: pod, ServerID: -1,
				Uplink:   &Link{CapacityMbps: float64(half) * cfg.ServerLinkMbps},
				Switches: []SwitchGroup{{Model: edgeSwitch, Count: 1}},
			}
			nextID++
			for s := 0; s < half; s++ {
				sid := len(t.ServerNode)
				leaf := &Node{
					ID: nextID, Level: LevelServer, Parent: rack, ServerID: sid,
					Uplink:    &Link{CapacityMbps: cfg.ServerLinkMbps},
					ServerIDs: []int{sid},
				}
				nextID++
				rack.Children = append(rack.Children, leaf)
				rack.ServerIDs = append(rack.ServerIDs, sid)
				t.ServerNode = append(t.ServerNode, leaf)
				t.Capacity = append(t.Capacity, cfg.ServerCapacity)
				t.Server = append(t.Server, cfg.ServerModel)
				t.nodes = append(t.nodes, leaf)
			}
			pod.Children = append(pod.Children, rack)
			pod.ServerIDs = append(pod.ServerIDs, rack.ServerIDs...)
			t.nodes = append(t.nodes, rack)
		}
		root.Children = append(root.Children, pod)
		root.ServerIDs = append(root.ServerIDs, pod.ServerIDs...)
		t.nodes = append(t.nodes, pod)
	}
	t.nodes = append(t.nodes, root)
	t.Root = root
	t.index()
	return t, nil
}

// NewSimulationFatTree builds the §VI-B large-scale simulation network: a
// 28-ary fat tree with 5488 Dell R940 servers and 980 HPE Altoline 6940
// switches, 10G server links.
func NewSimulationFatTree() *Topology {
	cfg := Config{
		ServerCapacity: resources.New(7200, 6*1024*1024, 10000), // 72 cores, 6 TB max R940, 10G
		ServerModel:    power.DellR940,
		ServerLinkMbps: 10000,
	}
	t, err := NewFatTree(28, power.Altoline6940, power.Altoline6940, power.Altoline6940, cfg)
	if err != nil {
		panic(err) // 28 is even: cannot fail
	}
	t.Name = "sim-fat-tree-28"
	return t
}
