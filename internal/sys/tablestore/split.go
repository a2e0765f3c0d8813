package tablestore

import (
	"strconv"

	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/simnet"
)

// splitTask is one WAL chunk of a dead server to be replayed.
type splitTask struct {
	Name     string
	Dead     string
	Index    int
	Assigned string
	Done     bool
}

// startSplit distributes the dead server's WAL chunks across survivors.
func (m *Master) startSplit(dead string) {
	env := m.env()
	var survivors []*RegionServer
	for _, rs := range m.c.RSs {
		if rs.name != dead && !rs.aborted {
			survivors = append(survivors, rs)
		}
	}
	if len(survivors) == 0 {
		env.Log.Errorf("No survivors to split WAL of %s", dead)
		return
	}
	m.splitTasks = nil
	m.splitCompleted = 0
	for i := 0; i < 3; i++ {
		task := &splitTask{Name: "walchunk-" + strconv.Itoa(i), Dead: dead, Index: i}
		m.splitTasks = append(m.splitTasks, task)
		m.assignSplit(task, survivors[i%len(survivors)].name)
	}
	// Progress watchdog: the recovery symptom when splitting wedges.
	env.Sim.Every("hmaster-split", 500*des.Millisecond, func() {
		if m.splitCompleted >= len(m.splitTasks) || len(m.splitTasks) == 0 {
			return
		}
		env.Log.Warnf("Waiting for %d outstanding split tasks of %s; regions still in RECOVERING state",
			len(m.splitTasks)-m.splitCompleted, dead)
	})
}

func (m *Master) assignSplit(task *splitTask, worker string) {
	env := m.env()
	task.Assigned = worker
	env.Log.Infof("Assigning split task %s of %s to %s", task.Name, task.Dead, worker)
	err := env.Net.Send("ts.master.assign-split", m.c.msg(m.name, worker, "ts.split-task", *task))
	if err != nil {
		env.Log.Warnf("Failed to assign split task %s to %s: %s", task.Name, worker, err)
	}
}

func (m *Master) onSplitDone(msg simnet.Message, _ func(interface{}, error)) {
	env := m.env()
	name, _ := msg.Payload.(string)
	for _, t := range m.splitTasks {
		if t.Name == name && !t.Done {
			t.Done = true
			m.splitCompleted++
		}
	}
	if m.splitCompleted >= len(m.splitTasks) && len(m.splitTasks) > 0 {
		env.Log.Infof("WAL split for %s completed, regions back online", m.splitTasks[0].Dead)
	}
}

// onSplitFailed resubmits after a worker failure. HB-20583 (f15): the
// resubmission uses a stale task cursor and requeues the task AFTER the
// failed one; the actually-failed task is never redone, so the split never
// completes and its region stays in RECOVERING.
func (m *Master) onSplitFailed(msg simnet.Message, _ func(interface{}, error)) {
	env := m.env()
	name, _ := msg.Payload.(string)
	failedIdx := -1
	for i, t := range m.splitTasks {
		if t.Name == name {
			failedIdx = i
		}
	}
	if failedIdx < 0 {
		return
	}
	resubmitIdx := (failedIdx + 1) % len(m.splitTasks) // stale cursor
	task := m.splitTasks[resubmitIdx]
	env.Log.Warnf("Split task %s failed on %s, resubmitting %s", name, msg.From, task.Name)
	if task.Done {
		task.Done = false
		m.splitCompleted--
	}
	var worker string
	for _, rs := range m.c.RSs {
		if rs.name != task.Dead && !rs.aborted {
			worker = rs.name
			break
		}
	}
	if worker == "" {
		return
	}
	m.assignSplit(task, worker)
}

// onSplitTask executes one split task on a region server: read the WAL
// chunk, write the recovered edits, report back.
func (rs *RegionServer) onSplitTask(m simnet.Message, _ func(interface{}, error)) {
	env := rs.env()
	if rs.aborted {
		return
	}
	task, ok := m.Payload.(splitTask)
	if !ok {
		return
	}
	env.Log.Infof("Worker %s splitting %s of %s", rs.name, task.Name, task.Dead)
	env.Sim.Schedule(rs.actor("split"), 30*des.Millisecond, func() {
		if rs.aborted {
			return
		}
		if err := env.FI.Reach("ts.split.read-walchunk", inject.IO); err != nil {
			env.Log.Errorf("Error reading WAL chunk %s on %s", task.Name, rs.name)
			env.Net.Send("ts.split.report-failed", rs.c.msg(rs.name, "hmaster", "ts.split-failed", task.Name))
			return
		}
		edits := task.Dead + "/recovered.edits/" + task.Name
		if err := env.Disk.Write("ts.split.write-edits", edits, []byte("edits\n")); err != nil {
			env.Log.Errorf("Error writing recovered edits for %s on %s: %s", task.Name, rs.name, err)
			env.Net.Send("ts.split.report-failed", rs.c.msg(rs.name, "hmaster", "ts.split-failed", task.Name))
			return
		}
		env.Log.Infof("Worker %s finished split task %s", rs.name, task.Name)
		env.Net.Send("ts.split.report-done", rs.c.msg(rs.name, "hmaster", "ts.split-done", task.Name))
	})
}
