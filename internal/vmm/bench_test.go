package vmm

import (
	"testing"

	"meryn/internal/cluster"
	"meryn/internal/sim"
)

// BenchmarkVMLifecycle measures a full start/stop cycle through the
// manager (placement, boot event, shutdown event).
func BenchmarkVMLifecycle(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	m, err := New(eng, Config{Site: cluster.New(cluster.Config{
		Name: "bench", Nodes: 16, CoresPerNode: 32, MemoryMBPerNode: 131072,
	})})
	if err != nil {
		b.Fatal(err)
	}
	m.RegisterImage("img")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var id string
		m.Start("img", func(vm *VM, err error) {
			if err != nil {
				b.Fatal(err)
			}
			id = vm.ID
		})
		eng.RunAll()
		m.Stop(id, func(err error) {
			if err != nil {
				b.Fatal(err)
			}
		})
		eng.RunAll()
	}
}
