package dfs

import (
	"strconv"

	"anduril/internal/cluster"
	"anduril/internal/des"
	"anduril/internal/inject"
)

// Secondary is the checkpointing secondary namenode.
type Secondary struct {
	c    *Cluster
	name string

	checkpoints int
}

func newSecondary(c *Cluster) *Secondary {
	return &Secondary{c: c, name: "2nn"}
}

func (s *Secondary) env() *cluster.Env { return s.c.env }

func (s *Secondary) start() {
	env := s.env()
	env.Sim.Every("2nn-checkpoint", 400*des.Millisecond, func() {
		s.doCheckpoint()
	})
}

// doCheckpoint runs one checkpoint cycle: roll the namenode's edit log,
// download image and edits, merge, upload the new image, finalize.
//
// HD-12248 (f6) lives in the upload step: an InterruptedException during
// the image transfer is logged but the checkpoint is finalized anyway with
// no image — the namenode discards the rolled edits and the backup
// silently ignores the newest operations.
func (s *Secondary) doCheckpoint() {
	env := s.env()
	env.Log.Debugf("Secondary starting checkpoint %d", s.checkpoints+1)
	env.Net.Call("dfs.secondary.roll-rpc", s.c.msg(s.name, "nn", "dfs.roll-edits", nil),
		rpcTimeout, func(editsPayload interface{}, err error) {
			if err != nil {
				env.Log.Warnf("Checkpoint aborted: could not roll edits")
				return
			}
			edits, _ := editsPayload.(string)
			env.Net.Call("dfs.secondary.get-image-rpc", s.c.msg(s.name, "nn", "dfs.get-image", nil),
				rpcTimeout, func(imgPayload interface{}, err error) {
					if err != nil {
						env.Log.Warnf("Checkpoint aborted: could not download fsimage: %s", err)
						s.finalize("")
						return
					}
					img, _ := imgPayload.(string)
					s.mergeAndUpload(img, edits)
				})
		})
}

// mergeAndUpload merges the downloaded image with the rolled edits and
// transfers the result back to the namenode.
func (s *Secondary) mergeAndUpload(img, edits string) {
	env := s.env()
	merged := "IMG|" + strconv.Itoa(s.checkpoints+1) + "\n" + edits
	if err := env.Disk.Write("dfs.secondary.write-merged", s.name+"/fsimage.ckpt", []byte(merged)); err != nil {
		env.Log.Errorf("Failed to write merged image locally: %s", err)
		s.finalize("")
		return
	}
	// The image transfer back to the namenode; interruptible.
	if err := env.FI.Reach("dfs.secondary.upload-image", inject.Interrupted); err != nil {
		env.Log.Warnf("Exception during image transfer to namenode")
		// Defect (HD-12248): the checkpoint is finalized with no image.
		s.finalize("")
		return
	}
	s.finalize(merged)
	_ = img
}

// finalize completes the checkpoint on the namenode.
func (s *Secondary) finalize(image string) {
	env := s.env()
	env.Net.Call("dfs.secondary.finalize-rpc",
		s.c.msg(s.name, "nn", "dfs.finalize-ckpt", checkpointDone{Image: image}),
		rpcTimeout, func(_ interface{}, err error) {
			if err != nil {
				env.Log.Warnf("Checkpoint finalization failed: %s", err)
				return
			}
			s.checkpoints++
			env.Log.Debugf("Secondary finished checkpoint %d", s.checkpoints)
		})
}

// Balancer redistributes blocks between datanodes. HD-15032 (f11): a
// socket error while fetching the block distribution from the namenode is
// unhandled and crashes the whole balancer.
type Balancer struct {
	c    *Cluster
	name string

	iterations int
	crashed    bool
}

func newBalancer(c *Cluster) *Balancer {
	return &Balancer{c: c, name: "balancer"}
}

func (b *Balancer) env() *cluster.Env { return b.c.env }

func (b *Balancer) start() {
	env := b.env()
	env.Sim.Every("balancer", 350*des.Millisecond, func() {
		if b.crashed {
			return
		}
		b.iterate()
	})
}

func (b *Balancer) iterate() {
	env := b.env()
	env.Net.Call("dfs.balancer.get-blocks", b.c.msg(b.name, "nn", "dfs.getblocks", nil),
		rpcTimeout, func(payload interface{}, err error) {
			if err != nil {
				if isSocketFault(err) {
					// Defect (HD-15032): the socket error propagates out of
					// the dispatcher and kills the balancer process.
					env.Log.Errorf("Unhandled exception in balancer: %s", err)
					env.Log.Errorf("Balancer terminated")
					b.crashed = true
					return
				}
				env.Log.Warnf("Balancer iteration failed, will retry: %s", err)
				return
			}
			dist, _ := payload.(map[string]int)
			b.moveIfNeeded(dist)
		})
}

// moveIfNeeded issues one block move from the fullest to the emptiest node.
func (b *Balancer) moveIfNeeded(dist map[string]int) {
	env := b.env()
	b.iterations++
	var maxDN, minDN string
	maxN, minN := -1, 1<<30
	for _, dn := range b.c.DNs {
		n := dist[dn.name]
		if n > maxN {
			maxN = n
			maxDN = dn.name
		}
		if n < minN {
			minN = n
			minDN = dn.name
		}
	}
	if maxDN == "" || minDN == "" || maxN-minN < 2 {
		env.Log.Debugf("Balancer iteration %d: cluster balanced", b.iterations)
		return
	}
	env.Net.Call("dfs.balancer.move-rpc", b.c.msg(b.name, minDN, "dfs.move-block", int64(1)),
		rpcTimeout, func(_ interface{}, err error) {
			if err != nil {
				env.Log.Warnf("Balancer block move to %s failed, will retry: %s", minDN, err)
				return
			}
			env.Log.Infof("Balancer iteration %d moved a block from %s to %s", b.iterations, maxDN, minDN)
		})
}

func isSocketFault(err error) bool {
	f, ok := inject.AsFault(err)
	return ok && (f.Kind == inject.Socket || f.Kind == inject.Connection)
}
