module anduril/bench

go 1.22

require anduril v0.0.0

replace anduril => ../
