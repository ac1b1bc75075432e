module qkbfly/bench

go 1.24

require qkbfly v0.0.0

replace qkbfly => ../
